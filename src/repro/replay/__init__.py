"""Compile-once access-trace IR + replay kernels (see DESIGN.md §12).

``compile_workload`` lowers a workload into a config-independent IR;
``replay_baseline`` / ``replay_tcor`` run the cache models over it
bit-identically to the live simulator, and ``replay_fetch_timing`` does
the same for the Tile Fetcher timing model (the live paths remain the
reference oracles, gated by tests/test_replay_equivalence.py).  The
engine choice itself lives in :mod:`repro.api`, one rule for
:func:`~repro.api.run_simulation` and
:func:`~repro.api.run_fetch_timing`: it replays unless
:func:`replay_allowed` names a reason not to (a tracer is attached, the
``REPRO_NO_REPLAY`` escape hatch is set) or the kernels raise
:class:`ReplayUnsupportedError` for a configuration outside what they
model.
"""

from __future__ import annotations

import os

from repro import envvars
from repro.obs import trace as obs_trace
from repro.obs.registry import Observation
from repro.replay.ir import (
    TRACE_IR_VERSION,
    CompiledTrace,
    FrameIR,
    TraceHeader,
    compile_workload,
    compiled_trace_for,
    load_trace,
    save_trace,
    trace_ir_compatible,
)
from repro.replay.kernels import (
    ReplayOutcome,
    ReplayUnsupportedError,
    replay_baseline,
    replay_fetch_timing,
    replay_tcor,
)

__all__ = [
    "TRACE_IR_VERSION",
    "CompiledTrace",
    "FrameIR",
    "TraceHeader",
    "ReplayOutcome",
    "ReplayUnsupportedError",
    "compile_workload",
    "compiled_trace_for",
    "load_trace",
    "save_trace",
    "observe_replay",
    "replay_allowed",
    "replay_baseline",
    "replay_fetch_timing",
    "replay_tcor",
    "trace_ir_compatible",
]


def replay_allowed(obs: Observation | None = None) -> str | None:
    """``None`` when replay may substitute for the live simulator,
    else the reason it may not.

    A tracer — whether attached to this run's observation or installed
    globally — needs the live path's per-access event stream, and
    ``REPRO_NO_REPLAY`` is the operator escape hatch.
    """
    if os.environ.get(envvars.NO_REPLAY):
        return f"{envvars.NO_REPLAY} is set"
    if obs is not None and obs.tracer is not None:
        return "a tracer is attached to this run"
    if obs_trace.ACTIVE is not None:
        return "a tracer is globally active"
    return None


def observe_replay(obs: Observation, outcome: ReplayOutcome) -> None:
    """Register the replay's reconstructed stats under the live path's
    metric names, so snapshots are byte-identical across engines."""
    from repro.tcor.system import PB_ACCOUNTING_RULE

    registry = obs.registry
    outcome.l2_stats.register(registry, f"live.{outcome.l2_name}")
    outcome.memory.register(registry, "live.dram")
    re_ran = False
    for prefix, stats in outcome.frame_stats:
        stats.register(registry, prefix)
        re_ran = re_ran or prefix == "live.re"
    registry.count("live.system.pb_l2_reads",
                   outcome.counters["pb_l2_reads"])
    registry.count("live.system.pb_l2_writes",
                   outcome.counters["pb_l2_writes"])
    obs.expect_sum(*PB_ACCOUNTING_RULE)
    if re_ran:
        from repro.anim.elimination import RE_ACCOUNTING_RULE

        obs.expect_sum(*RE_ACCOUNTING_RULE)
