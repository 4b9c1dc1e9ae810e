"""The benchmark suite (paper Table II).

Ten synthetic workloads stand in for the ten commercial Android games.
Each :class:`BenchmarkSpec` records the *published* characteristics —
Parameter Buffer footprint, average primitive reuse, plus the texture
footprint and shader length where the paper states them (RoK's 6.8 MiB
and SWa's 0.4 MiB textures; CCS's 4 and DDS's 20 instructions/pixel) —
and the scene generator synthesizes geometry matching them.  Values the
paper does not publish are our assumptions, chosen to keep each
benchmark's Parameter Buffer share of total memory traffic in the band
Figure 18 implies, and are flagged in EXPERIMENTS.md.

The primitive count is derived from the footprint model::

    footprint = P * (mean_attrs * 64 B) + P * reuse * 4 B
                 (block-aligned attributes)   (PMDs)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from repro.config import DEFAULT_GPU, ParameterBufferConfig, ScreenConfig
from repro.geometry.generator import SceneGenerator, SceneParameters
from repro.geometry.scene import Scene
from repro.geometry.traversal import TraversalOrder
from repro.tiling.engine import TilingEngine, TilingTrace

MIB = 1024 * 1024


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table II row (paper-published values + our assumptions)."""

    alias: str
    name: str
    installs_millions: int
    genre: str
    is_2d: bool
    pb_footprint_mib: float      # published
    avg_reuse: float             # published
    texture_mib: float           # published for RoK/SWa, assumed otherwise
    shader_insts_per_pixel: int  # published for CCS/DDS, assumed otherwise
    coverage_fraction: float = 0.45  # tuned to the paper's prims/tile quotes
    mean_attributes: float = 3.0
    seed: int = 0

    def num_primitives(self,
                       pbuffer: ParameterBufferConfig | None = None) -> int:
        pbuffer = pbuffer or ParameterBufferConfig()
        per_prim = (self.mean_attributes * pbuffer.attribute_stride
                    + self.avg_reuse * pbuffer.pmd_bytes)
        return max(16, round(self.pb_footprint_mib * MIB / per_prim))


_SPECS = [
    BenchmarkSpec("CCS", "Candy Crush Saga", 1000, "Puzzle", True,
                  0.17, 5.9, texture_mib=1.2, shader_insts_per_pixel=4,
                  coverage_fraction=0.8, seed=101),
    BenchmarkSpec("SoD", "Sonic Dash", 100, "Arcade", False,
                  0.14, 6.9, texture_mib=1.8, shader_insts_per_pixel=8,
                  seed=102),
    BenchmarkSpec("TRu", "Temple Run", 500, "Arcade", False,
                  0.55, 2.8, texture_mib=1.0, shader_insts_per_pixel=9,
                  coverage_fraction=0.45, seed=103),
    BenchmarkSpec("SWa", "Shoot Strike War Fire", 10, "Shooter", False,
                  0.28, 3.7, texture_mib=0.4, shader_insts_per_pixel=10,
                  seed=104),
    BenchmarkSpec("CRa", "City Racing 3D", 50, "Racing", False,
                  0.86, 2.0, texture_mib=0.8, shader_insts_per_pixel=12,
                  seed=105),
    BenchmarkSpec("RoK", "Rise of Kingdoms: Lost Crusade", 10, "Strategy",
                  True, 0.2, 3.6, texture_mib=6.8, shader_insts_per_pixel=6,
                  coverage_fraction=0.7, seed=106),
    BenchmarkSpec("DDS", "Derby Destruction Simulator", 10, "Racing", False,
                  1.81, 1.4, texture_mib=2.0, shader_insts_per_pixel=20,
                  coverage_fraction=0.43, seed=107),
    BenchmarkSpec("Snp", "Sniper 3D", 500, "Shooter", False,
                  0.71, 1.47, texture_mib=0.6, shader_insts_per_pixel=14,
                  seed=108),
    BenchmarkSpec("Mze", "3D Maze 2: Diamonds & Ghosts", 10, "Arcade", False,
                  1.22, 2.4, texture_mib=1.5, shader_insts_per_pixel=10,
                  seed=109),
    BenchmarkSpec("GTr", "Gravitytetris", 5, "Puzzle", False,
                  0.12, 6.9, texture_mib=1.0, shader_insts_per_pixel=5,
                  seed=110),
]

BENCHMARKS: dict[str, BenchmarkSpec] = {spec.alias: spec for spec in _SPECS}
BENCHMARK_ORDER: tuple[str, ...] = tuple(spec.alias for spec in _SPECS)


@dataclass
class Workload:
    """A benchmark instantiated at some scale: its frames, binned under
    ``order`` into a Parameter Buffer laid out by ``pbuffer`` (``None``
    is the default layout)."""

    spec: BenchmarkSpec
    screen: ScreenConfig
    scale: float
    scenes: list[Scene]
    background: "BackgroundTrafficModel"
    order: TraversalOrder = TraversalOrder.Z_ORDER
    pbuffer: ParameterBufferConfig | None = None
    # Memoized access-trace IR (repro.replay); compiled on first use so
    # every configuration replayed against this workload shares it.
    compiled_trace: object | None = field(default=None, repr=False,
                                          compare=False)
    # The animation recipe that produced the frames (repro.anim), or
    # None for the suite's independently-reseeded frames.  Part of the
    # workload's identity: caches key compiled traces and results on it.
    anim: object | None = None
    _traces: list[TilingTrace] | None = field(default=None, init=False,
                                              repr=False, compare=False)

    @property
    def traces(self) -> list[TilingTrace]:
        """One Tiling Engine trace per frame: the Parameter Buffer and
        both phases' event objects.  Built on first read; only the live
        simulator and the reference derivations read them, since the
        replay IR is lowered from the scenes' binning directly."""
        if self._traces is None:
            self._traces = [TilingEngine(scene, self.order,
                                         self.pbuffer).trace()
                            for scene in self.scenes]
        return self._traces

    @property
    def num_primitives(self) -> int:
        return len(self.scenes[0]) if self.scenes else 0

    @property
    def num_frames(self) -> int:
        return len(self.scenes)

    def measured_reuse(self) -> float:
        return self.scenes[0].average_reuse()

    def measured_footprint_mib(self) -> float:
        return self.traces[0].pb.footprint_bytes() / MIB


@dataclass(frozen=True)
class WorkloadProfile:
    """What experiments read of a workload besides its simulations.

    Energy and frame-time models read ``spec``, ``screen``, ``scale``,
    ``num_primitives`` and ``num_frames``, as they read a
    :class:`Workload`; Table II reads the measured Parameter Buffer
    footprint and reuse, and the miss-curve sweeps read frame 0's
    Attribute Cache stream (binning-order writes, then traversal-order
    reads, by primitive id) with the mean attribute count.

    :meth:`from_trace` derives them from a compiled trace, so a caller
    holding a stored trace needs no build; :meth:`of` is the reference
    derivation from a built workload's scenes and Parameter Buffer.
    """

    spec: BenchmarkSpec
    screen: ScreenConfig
    scale: float
    num_primitives: int
    num_frames: int
    footprint_bytes: int
    reuse: float
    mean_attributes: float
    attribute_stream: list[int] = field(repr=False)

    @classmethod
    def of(cls, workload: Workload) -> "WorkloadProfile":
        from repro.analysis.miss_curves import attribute_access_trace

        return cls(
            spec=workload.spec, screen=workload.screen,
            scale=workload.scale, num_primitives=workload.num_primitives,
            num_frames=workload.num_frames,
            footprint_bytes=workload.traces[0].pb.footprint_bytes(),
            reuse=workload.measured_reuse(),
            mean_attributes=workload.scenes[0].average_attributes(),
            attribute_stream=attribute_access_trace(workload),
        )

    @classmethod
    def from_trace(cls, trace, spec: BenchmarkSpec, screen: ScreenConfig,
                   scale: float) -> "WorkloadProfile":
        """The same values from a :class:`~repro.replay.CompiledTrace`.

        Frame 0's build stream holds one attribute write per binned
        primitive and one PMD write per (tile, primitive) pair, so the
        footprint is ``sum(bw_nattr) * stride + len(bp_tile) * pmd``
        and the reuse ``len(bp_tile) / len(bw_pid)``; ``attr_count``
        lists every primitive's attribute count, binned or not.
        """
        header = trace.header
        frame = trace.frames[0]
        written = frame.bw_pid
        counts = frame.attr_count
        return cls(
            spec=spec, screen=screen, scale=scale,
            num_primitives=header.num_primitives,
            num_frames=len(trace.frames),
            footprint_bytes=(sum(frame.bw_nattr) * header.attribute_stride
                             + len(frame.bp_tile) * header.pmd_bytes),
            reuse=len(frame.bp_tile) / len(written) if written else 0.0,
            mean_attributes=sum(counts) / len(counts) if counts else 0.0,
            attribute_stream=written + frame.fr_pid,
        )


@dataclass(frozen=True)
class WorkloadIdentity:
    """What a suite workload is built from: the benchmark, the geometry
    scale and, for a coherent multi-frame sequence, the animation recipe
    (a :class:`repro.anim.AnimationSpec`).  Builds are deterministic in
    these, so they identify every compiled trace and simulation result
    derived from the workload."""

    spec: BenchmarkSpec
    scale: float
    anim: object | None = None

    @classmethod
    def of(cls, workload: Workload) -> "WorkloadIdentity":
        return cls(workload.spec, workload.scale, workload.anim)

    @property
    def screen(self) -> ScreenConfig:
        """The screen :meth:`build` renders to (Table I's)."""
        return DEFAULT_GPU.screen

    def build(self) -> Workload:
        if self.anim is None:
            return build_workload(self.spec, scale=self.scale)
        from repro.anim import build_animated_workload

        return build_animated_workload(self.spec, self.anim,
                                       scale=self.scale)

    def payload(self) -> dict:
        """Canonical JSON-able form, as cache keys hash it."""
        anim = None
        if self.anim is not None:
            from repro.anim.spec import anim_to_payload

            anim = anim_to_payload(self.anim)
        return {"spec": asdict(self.spec), "scale": float(self.scale),
                "anim": anim}


def scene_parameters(spec: BenchmarkSpec, scale: float = 1.0,
                     pbuffer: ParameterBufferConfig | None = None
                     ) -> SceneParameters:
    """The scene generator's parameters for ``spec`` at ``scale``."""
    return SceneParameters(
        num_primitives=max(16, round(spec.num_primitives(pbuffer) * scale)),
        target_reuse=spec.avg_reuse,
        mean_attributes=spec.mean_attributes,
        is_2d=spec.is_2d,
        coverage_fraction=spec.coverage_fraction,
        seed=spec.seed,
    )


def build_workload(spec: BenchmarkSpec, scale: float = 1.0, frames: int = 1,
                   screen: ScreenConfig | None = None,
                   order: TraversalOrder = TraversalOrder.Z_ORDER,
                   pbuffer: ParameterBufferConfig | None = None) -> Workload:
    """Instantiate a benchmark.

    ``scale`` shrinks the geometry (and the background traffic with it)
    for fast tests; 1.0 is paper scale.
    """
    from repro.workloads.background import BackgroundTrafficModel

    if scale <= 0:
        raise ValueError("scale must be positive")
    if frames <= 0:
        raise ValueError("need at least one frame")
    screen = screen or DEFAULT_GPU.screen
    generator = SceneGenerator(screen, scene_parameters(spec, scale, pbuffer))
    scenes = [generator.generate(frame) for frame in range(frames)]
    background = BackgroundTrafficModel(spec, screen, scale=scale)
    return Workload(spec=spec, screen=screen, scale=scale, scenes=scenes,
                    background=background, order=order, pbuffer=pbuffer)
