"""The numpy lowering equals the event walk, field for field.

``compile_workload`` lowers each frame straight from its scene's
binning arrays (``lower_frame``).  The reference is the walk over the
Tiling Engine's event objects (``Workload.traces``), which the live
simulator reads: every ``FrameIR`` field the lowering produces must
equal the one the walk gives, on the suite, on animated sequences, on
every traversal order and on generated scenes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anim import AnimationSpec, build_animated_workload
from repro.anim.signatures import tile_signatures
from repro.api import WorkloadSource
from repro.config import ParameterBufferConfig, ScreenConfig
from repro.geometry.primitives import Primitive, Vertex
from repro.geometry.scene import Scene
from repro.geometry.traversal import TraversalOrder
from repro.replay import FrameIR, compile_workload
from repro.replay.ir import (
    BUILD_ATTR_WRITE,
    BUILD_PMD_WRITE,
    FETCH_ATTR_READ,
    FETCH_PMD_READ,
    FETCH_TILE_DONE,
    lower_frame,
)
from repro.tiling.engine import TilingEngine
from repro.tiling.events import (
    AttributeRead,
    AttributeWrite,
    PmdRead,
    PmdWrite,
    TileDone,
)
from repro.workloads.background import BackgroundTrafficModel
from repro.workloads.suite import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    Workload,
    WorkloadIdentity,
    build_workload,
)

FIELDS = tuple(name for name in FrameIR.__slots__ if name != "_views")


def frame_from_events(scene: Scene, trace) -> FrameIR:
    """One frame's IR by walking the Tiling Engine's event objects."""
    pb = trace.pb
    build = {name: [] for name in ("build_kind", "bp_tile", "bp_pos",
                                   "bw_pid", "bw_nattr", "bw_opt",
                                   "bw_last")}
    for event in trace.build_events:
        if type(event) is PmdWrite:
            build["build_kind"].append(BUILD_PMD_WRITE)
            build["bp_tile"].append(event.tile_id)
            build["bp_pos"].append(event.position)
        else:
            assert type(event) is AttributeWrite
            build["build_kind"].append(BUILD_ATTR_WRITE)
            build["bw_pid"].append(event.primitive_id)
            build["bw_nattr"].append(event.num_attributes)
            build["bw_opt"].append(event.opt_number)
            build["bw_last"].append(event.last_use_rank)
    fetch = {name: [] for name in ("fetch_kind", "fp_tile", "fp_pos",
                                   "fr_pid", "fr_nattr", "fr_opt",
                                   "fr_last", "td_tile", "td_rank",
                                   "td_fb")}
    for event in trace.fetch_events:
        if type(event) is PmdRead:
            fetch["fetch_kind"].append(FETCH_PMD_READ)
            fetch["fp_tile"].append(event.tile_id)
            fetch["fp_pos"].append(event.position)
        elif type(event) is AttributeRead:
            fetch["fetch_kind"].append(FETCH_ATTR_READ)
            fetch["fr_pid"].append(event.primitive_id)
            fetch["fr_nattr"].append(event.num_attributes)
            fetch["fr_opt"].append(event.opt_number)
            fetch["fr_last"].append(event.last_use_rank)
        else:
            assert type(event) is TileDone
            fetch["fetch_kind"].append(FETCH_TILE_DONE)
            fetch["td_tile"].append(event.tile_id)
            fetch["td_rank"].append(event.tile_rank)
            fetch["td_fb"].append(1 if pb.list_length(event.tile_id) else 0)
    # The signatures hash each tile's primitive list, which the scene
    # derives from the binning arrays: it must match the PB-Lists.
    assert scene.tile_lists() == [[slot.pmd.primitive_id for slot in slots]
                                  for slots in pb.tile_lists]
    attrs = pb.attributes
    return FrameIR(
        **build, **fetch,
        attr_base=[attrs.primitive_base(pid)
                   for pid in range(attrs.num_primitives)],
        attr_count=[attrs.attribute_count(pid)
                    for pid in range(attrs.num_primitives)],
        rank_of_tile=list(pb.rank_of_tile),
        tile_sig=tile_signatures(scene),
    )


def assert_lowering_matches(workload: Workload, label: str = "") -> None:
    """Every frame of ``compile_workload(workload)`` equals the event
    walk over ``workload.traces``, field for field."""
    compiled = compile_workload(workload)
    assert len(compiled.frames) == len(workload.traces)
    for index, (scene, trace, frame) in enumerate(zip(
            workload.scenes, workload.traces, compiled.frames)):
        reference = frame_from_events(scene, trace)
        for name in FIELDS:
            assert getattr(frame, name) == getattr(reference, name), \
                f"{label} frame {index}: {name} differs"


def _workload(scenes: list[Scene], order=TraversalOrder.Z_ORDER,
              pbuffer=None) -> Workload:
    spec = BENCHMARKS["GTr"]
    return Workload(spec=spec, screen=scenes[0].screen, scale=0.05,
                    scenes=scenes,
                    background=BackgroundTrafficModel(spec, scenes[0].screen,
                                                      scale=0.05),
                    order=order, pbuffer=pbuffer)


class TestSuite:
    @pytest.mark.parametrize("scale", [0.2, 1.0])
    @pytest.mark.parametrize("alias", BENCHMARK_ORDER)
    def test_suite_workload(self, alias, scale):
        workload = build_workload(BENCHMARKS[alias], scale=scale)
        assert_lowering_matches(workload, f"{alias}@{scale}")

    @pytest.mark.parametrize("order", list(TraversalOrder))
    def test_every_traversal_order(self, order):
        workload = build_workload(BENCHMARKS["SoD"], scale=0.2, frames=2,
                                  order=order)
        assert_lowering_matches(workload, order.value)


class TestAnimated:
    @pytest.mark.parametrize("alias", ["SoD", "GTr"])
    @pytest.mark.parametrize("frames", [4, 8])
    @pytest.mark.parametrize("churn_pct", [0, 50, 100])
    def test_fig_re_sequences(self, alias, frames, churn_pct):
        """fig_re's twelve (benchmark, frames, churn) workloads."""
        anim = AnimationSpec(frames=frames, path="orbit", dwell=2, travel=2,
                             churn=churn_pct / 100.0, seed=11)
        workload = build_animated_workload(BENCHMARKS[alias], anim,
                                           scale=0.2)
        assert_lowering_matches(workload, f"{alias} {anim}")

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_served_sequences(self, seed):
        """The animated requests of the serve benchmark's six rounds."""
        anim = AnimationSpec(frames=4, path="orbit", dwell=2, travel=2,
                             churn=0.5, seed=seed)
        workload = build_animated_workload(BENCHMARKS["GTr"], anim,
                                           scale=0.2)
        assert_lowering_matches(workload, f"seed {seed}")


SCREEN = ScreenConfig(160, 96, 32)  # 5 x 3 tiles
# Coordinates on and around the tile grid, inside and outside the screen.
_GRID = [-40.0, -32.0, -0.5, 0.0, 16.0, 31.5, 32.0, 64.0, 95.0, 96.0,
         128.0, 159.0, 160.0, 200.0]
_coordinate = st.one_of(
    st.sampled_from(_GRID),
    st.floats(min_value=-50.0, max_value=210.0, allow_nan=False))


@st.composite
def _frames(draw):
    """1-4 frames of up to 12 triangles over one primitive count:
    free, clipped, fully off screen, or with vertices on tile lines."""
    count = draw(st.integers(min_value=0, max_value=12))
    attributes = draw(st.lists(st.integers(min_value=1, max_value=15),
                               min_size=count, max_size=count))
    scenes = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        primitives = []
        for pid in range(count):
            xs = draw(st.lists(_coordinate, min_size=3, max_size=3))
            ys = draw(st.lists(_coordinate, min_size=3, max_size=3))
            primitives.append(Primitive(
                pid, *(Vertex(x, y) for x, y in zip(xs, ys)),
                num_attributes=attributes[pid]))
        scenes.append(Scene(SCREEN, primitives))
    return scenes


class TestGenerated:
    @settings(max_examples=60, deadline=None)
    @given(scenes=_frames(), order=st.sampled_from(list(TraversalOrder)))
    def test_generated_scenes(self, scenes, order):
        assert_lowering_matches(_workload(scenes, order))

    def test_empty_scene_has_only_tile_dones(self):
        workload = _workload([Scene(SCREEN, [])])
        assert_lowering_matches(workload)
        (frame,) = compile_workload(workload).frames
        assert frame.build_kind == []
        assert frame.fetch_kind == [FETCH_TILE_DONE] * SCREEN.num_tiles
        assert frame.td_fb == [0] * SCREEN.num_tiles


def _crowded_scene() -> Scene:
    """Five triangles that all cover tile 0 of ``SCREEN``."""
    return Scene(SCREEN, [Primitive(pid, Vertex(1.0, 1.0), Vertex(20.0, 1.0),
                                    Vertex(1.0, 20.0 + pid))
                          for pid in range(5)])


class TestOverflow:
    @pytest.mark.parametrize("limit", [1, 2, 4])
    def test_same_overflow_error_on_both_paths(self, limit):
        pbuffer = ParameterBufferConfig(max_primitives_per_tile=limit)
        scene = _crowded_scene()
        with pytest.raises(OverflowError) as live:
            TilingEngine(scene, TraversalOrder.Z_ORDER, pbuffer)
        with pytest.raises(OverflowError) as lowered:
            lower_frame(scene, TraversalOrder.Z_ORDER, pbuffer)
        assert str(lowered.value) == str(live.value)

    def test_a_list_at_the_limit_lowers(self):
        pbuffer = ParameterBufferConfig(max_primitives_per_tile=5)
        assert_lowering_matches(_workload([_crowded_scene()],
                                          pbuffer=pbuffer))


class TestColdPath:
    def test_cold_source_never_builds_tiling_engine_traces(self, monkeypatch):
        def refuse(self):
            raise AssertionError("TilingEngine.trace called on the cold path")

        monkeypatch.setattr(TilingEngine, "trace", refuse)
        source = WorkloadSource(WorkloadIdentity(BENCHMARKS["GTr"], 0.05))
        trace = source.trace()
        assert trace.num_accesses > 0
        assert source.workload()._traces is None
        animated = WorkloadSource(WorkloadIdentity(
            BENCHMARKS["SoD"], 0.05,
            AnimationSpec(frames=3, path="orbit", churn=0.5, seed=2)))
        assert len(animated.trace().frames) == 3

    def test_traces_are_built_on_first_read(self):
        workload = build_workload(BENCHMARKS["GTr"], scale=0.05, frames=2)
        assert workload._traces is None
        assert workload.num_frames == 2
        assert workload._traces is None
        traces = workload.traces
        assert len(traces) == 2 and workload.traces is traces
        assert math.isclose(workload.measured_footprint_mib(),
                            traces[0].pb.footprint_bytes() / 2 ** 20)
