"""Animated workloads and Rendering Elimination (DESIGN.md §15).

Public surface of the animation subsystem:

- :class:`AnimationSpec` / :func:`build_animated_workload` — a
  deterministic, prefix-stable multi-frame layer over the benchmark
  suite (camera paths, object churn, per-object jitter);
- :func:`tile_signatures` / :func:`skip_mask` — the per-tile input
  signatures shared verbatim by the live simulator and the replay IR;
- :class:`RenderingElimination` / :class:`REStats` — the early-discard
  unit and the stats footprint the live engine and the replay kernels
  share.
"""

from repro.anim.animate import build_animated_workload
from repro.anim.elimination import (RE_ACCOUNTING_RULE, REStats,
                                    RenderingElimination)
from repro.anim.metrics import (register_energy_gauges, register_re_gauges,
                                register_sequence_gauges)
from repro.anim.paths import (Affine2D, camera_transform, path_parameter,
                              smoothstep)
from repro.anim.signatures import EMPTY_TILE_SIG, skip_mask, tile_signatures
from repro.anim.spec import (PATHS, AnimationSpec, anim_from_payload,
                             anim_to_payload)

__all__ = [
    "Affine2D",
    "AnimationSpec",
    "EMPTY_TILE_SIG",
    "PATHS",
    "RE_ACCOUNTING_RULE",
    "REStats",
    "RenderingElimination",
    "anim_from_payload",
    "anim_to_payload",
    "build_animated_workload",
    "camera_transform",
    "path_parameter",
    "register_energy_gauges",
    "register_re_gauges",
    "register_sequence_gauges",
    "skip_mask",
    "smoothstep",
    "tile_signatures",
]
