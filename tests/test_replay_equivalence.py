"""Replay gate: compiled-trace kernels are bit-identical to the live
simulator and to the live Tile Fetcher timing model.

The acceptance bar for the replay engine (the same bar PR 2 set for
hot-path tuning): for every Table II benchmark and every memory
organization the paper evaluates, replaying the compiled access trace
must reproduce the live simulator's ``SystemResult`` exactly — integer
counter equality, field by field — and its metrics registry snapshot
byte-identically (same names, same values).  The live path remains the
reference oracle; any divergence fails here before it can touch a
figure.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    SimulationConfig,
    WorkloadSource,
    run_fetch_timing,
    simulate,
)
from repro.config import KIB, TCORConfig
from repro.obs.registry import MetricsRegistry, Observation
from repro.replay import (
    ReplayUnsupportedError,
    compile_workload,
    load_trace,
    replay_baseline,
    replay_tcor,
    save_trace,
)
from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS, build_workload

EQUIVALENCE_SCALE = 0.2
TILE_CACHE_BYTES = 64 * KIB
# Non-default L2s (size, ways): the sensitivity sweep's smallest, where
# many sets overflow; fewer ways; 192 sets, not a power of two.
L2_GEOMETRIES = ((256 * KIB, 8), (128 * KIB, 4), (96 * KIB, 8))


def _with_l2(size: int, ways: int):
    from repro.config import DEFAULT_GPU

    return dataclasses.replace(DEFAULT_GPU, l2_cache=dataclasses.replace(
        DEFAULT_GPU.l2_cache, size_bytes=size, associativity=ways))


@pytest.fixture
def overflow_runs(monkeypatch):
    """Counts the L2 passes that sent some sets through the sequential
    engine, so a matrix can assert that its overflow path ran."""
    from repro.replay import kernels

    runs = []
    engine = kernels._l2_engine

    def counted(*args, **kwargs):
        runs.append(args[:2])
        return engine(*args, **kwargs)

    monkeypatch.setattr(kernels, "_l2_engine", counted)
    return runs


def _assert_results_equal(alias, live, replayed) -> None:
    # Field-by-field so a regression names the exact counter.
    for field in dataclasses.fields(type(live)):
        assert getattr(live, field.name) == getattr(replayed, field.name), \
            f"{alias}: {live.label}.{field.name} diverged"


def _assert_metrics_equal(label, live, replayed) -> None:
    assert dict(live.metrics) == dict(replayed.metrics), \
        f"{label}: metrics diverged"
    # A snapshot lists each stats object's region counters in the order
    # the run first touched each region, on either engine.
    assert [name for name in live.metrics if ".by_region." in name] == \
        [name for name in replayed.metrics if ".by_region." in name], \
        f"{label}: region order diverged"


@pytest.mark.parametrize("alias", BENCHMARK_ORDER)
def test_replay_bit_identical_for_every_policy(alias):
    source = WorkloadSource.of(
        build_workload(BENCHMARKS[alias], scale=EQUIVALENCE_SCALE))
    tcor_config = TCORConfig.for_total_size(TILE_CACHE_BYTES)
    configs = (
        SimulationConfig(kind="baseline", tile_cache_bytes=TILE_CACHE_BYTES),
        SimulationConfig(kind="tcor", tcor=tcor_config),
        SimulationConfig(kind="tcor", tcor=tcor_config,
                         l2_enhancements=False),
    )
    for config in configs:
        live = simulate(source, config, engine="live")
        replayed = simulate(source, config, engine="replay")
        _assert_results_equal(alias, live.result, replayed.result)
        # The whole snapshot too: counters a SystemResult field does not
        # carry (e.g. live.l2.dead_evictions) are only compared here.
        _assert_metrics_equal(f"{alias} {live.result.label}", live,
                              replayed)


class TestMetricNames:
    """Replay-path metrics must be byte-identical to live-path metrics
    (same ``live.*`` names, same values), so ``tcor-metrics diff``
    passes against a baseline regenerated on either path."""

    @pytest.mark.parametrize("kind", ["baseline", "tcor"])
    def test_snapshot_byte_identical(self, kind):
        config = SimulationConfig(kind=kind,
                                  tile_cache_bytes=TILE_CACHE_BYTES)
        live = simulate(build_workload(BENCHMARKS["CCS"], scale=0.1),
                        config, engine="live")
        replayed = simulate(build_workload(BENCHMARKS["CCS"], scale=0.1),
                            config, engine="replay")
        assert set(live.metrics) == set(replayed.metrics)
        assert dict(live.metrics) == dict(replayed.metrics)
        assert live.ok and replayed.ok

    def test_conservation_invariants_attach_on_replay(self):
        obs = Observation(MetricsRegistry())
        workload = build_workload(BENCHMARKS["GTr"], scale=0.1)
        run = simulate(workload, SimulationConfig(kind="tcor"), obs=obs,
                       engine="replay")
        assert run.ok
        assert obs.registry.check_invariants() == []
        snapshot = obs.snapshot()
        assert "live.system.pb_l2_reads" in snapshot
        assert "live.l2.accesses" in snapshot


class TestRandomizedMatrix:
    """Property-style differential: a seeded random matrix of
    mini-workloads and configurations, each replayed against the live
    oracle over the full *Stats surface (the metrics snapshot flattens
    every stats object the run registers)."""

    def test_randomized_mini_matrix(self):
        rng = random.Random(0x7C08)
        aliases = rng.sample(BENCHMARK_ORDER, 4)
        for index, alias in enumerate(aliases):
            frames = 2 if index == 0 else 1
            workload = build_workload(BENCHMARKS[alias], scale=0.05,
                                      frames=frames)
            size = rng.choice([32 * KIB, 64 * KIB, 96 * KIB])
            overrides = {}
            if rng.random() < 0.5:
                overrides["write_bypass"] = False
            if rng.random() < 0.5:
                overrides["use_xor_indexing"] = False
            tcor_config = TCORConfig.for_total_size(size, **overrides)
            configs = [
                SimulationConfig(kind="baseline", tile_cache_bytes=size),
                SimulationConfig(kind="tcor", tcor=tcor_config),
                SimulationConfig(kind="tcor", tcor=tcor_config,
                                 l2_enhancements=False,
                                 interleaved_lists=rng.random() < 0.5),
                SimulationConfig(kind="tcor", tile_cache_bytes=size,
                                 include_background=False),
            ]
            for config in configs:
                live = simulate(build_workload(BENCHMARKS[alias],
                                               scale=0.05, frames=frames),
                                config, engine="live")
                replayed = simulate(workload, config, engine="replay")
                _assert_results_equal(alias, live.result, replayed.result)
                _assert_metrics_equal(f"{alias} {config}", live, replayed)

    def test_non_default_l2_geometries(self, overflow_runs):
        """The L2 pass at L2s other than the default 1 MiB 8-way: the
        suite configs per geometry, then three animated frames with
        Rendering Elimination on at the smallest."""
        from repro.anim import AnimationSpec, build_animated_workload

        rng = random.Random(0x12C0)
        cells = []
        for (size, ways), alias in zip(L2_GEOMETRIES,
                                       rng.sample(BENCHMARK_ORDER, 3)):
            gpu = _with_l2(size, ways)
            source = WorkloadSource.of(
                build_workload(BENCHMARKS[alias], scale=0.05))
            tcor_config = TCORConfig.for_total_size(TILE_CACHE_BYTES)
            cells += [(f"{alias} L2 {size // KIB}K/{ways}", source, config)
                      for config in (
                          SimulationConfig(kind="baseline", gpu=gpu,
                                           tile_cache_bytes=TILE_CACHE_BYTES),
                          SimulationConfig(kind="tcor", gpu=gpu,
                                           tcor=tcor_config),
                          SimulationConfig(kind="tcor", gpu=gpu,
                                           tcor=tcor_config,
                                           l2_enhancements=False))]
        anim = AnimationSpec(frames=3, path="orbit", dwell=2, travel=1,
                             churn=0.5, seed=29)
        cells.append(("SoD animated L2 256K/8", WorkloadSource.of(
            build_animated_workload(BENCHMARKS["SoD"], anim, scale=0.05)),
            SimulationConfig(kind="tcor", gpu=_with_l2(256 * KIB, 8),
                             rendering_elimination=True)))
        for label, source, config in cells:
            live = simulate(source, config, engine="live")
            replayed = simulate(source, config, engine="replay")
            _assert_results_equal(label, live.result, replayed.result)
            _assert_metrics_equal(f"{label} {config}", live, replayed)
        assert live.result.tiles_skipped > 0
        # Some sets overflowed at each geometry and went through the
        # sequential engine.
        assert {ways for _, ways in overflow_runs} == {4, 8}
        assert {num_sets for num_sets, _ in overflow_runs} >= {
            size // 64 // ways for size, ways in L2_GEOMETRIES}


class TestAnimatedMatrix:
    """The PR-10 gate: multi-frame animated workloads with Rendering
    Elimination on and off must replay bit-identically to the live
    simulator — the per-tile signature arrays travel in the trace IR,
    so the replay kernels reproduce the same skip decisions, the same
    scoreboard advances and the same ``re.*`` accounting."""

    def test_animated_mini_matrix(self):
        from repro.anim import AnimationSpec, build_animated_workload

        cells = [
            ("SoD", 4, 0.0, "tcor"),
            ("SoD", 4, 0.0, "baseline"),
            ("GTr", 3, 0.5, "tcor"),
            ("CCS", 3, 1.0, "baseline"),
        ]
        for alias, frames, churn, kind in cells:
            anim = AnimationSpec(frames=frames, path="orbit", dwell=2,
                                 travel=2, churn=churn, seed=23)
            workload = build_animated_workload(BENCHMARKS[alias], anim,
                                               scale=0.05)
            for re_on in (False, True):
                config = SimulationConfig(kind=kind,
                                          rendering_elimination=re_on)
                live_obs = Observation(MetricsRegistry())
                replay_obs = Observation(MetricsRegistry())
                live = simulate(workload, config, engine="live",
                                obs=live_obs)
                replayed = simulate(workload, config, engine="replay",
                                    obs=replay_obs)
                label = f"{alias} f{frames} churn={churn} {kind} " \
                        f"re={re_on}"
                _assert_results_equal(label, live.result, replayed.result)
                _assert_metrics_equal(label, live, replayed)
                # Both engines register their stats and attach their
                # rules in one order: the snapshot lists every item,
                # not only the region counters, in the same place.
                assert list(live.metrics) == list(replayed.metrics), label
                assert live_obs.registry.sum_rules() == \
                    replay_obs.registry.sum_rules(), label
                assert live.ok and replayed.ok

    def test_animated_trace_round_trips_with_signatures(self):
        from repro.anim import AnimationSpec, build_animated_workload

        anim = AnimationSpec(frames=3, path="orbit", dwell=1, travel=1,
                             seed=23)
        workload = build_animated_workload(BENCHMARKS["SoD"], anim,
                                           scale=0.05)
        trace = compile_workload(workload)
        buffer = io.BytesIO()
        save_trace(buffer, trace)
        buffer.seek(0)
        loaded = load_trace(buffer)
        for frame, frame_loaded in zip(trace.frames, loaded.frames):
            assert list(frame.tile_sig) == list(frame_loaded.tile_sig)
        _assert_results_equal(
            "SoD",
            replay_tcor(trace, rendering_elimination=True).result,
            replay_tcor(loaded, rendering_elimination=True).result)


class TestRoundTrip:
    """IR serialization: compile -> save -> load -> replay -> equal."""

    def test_npz_round_trip_replays_identically(self):
        workload = build_workload(BENCHMARKS["SoD"], scale=0.1)
        trace = compile_workload(workload)
        buffer = io.BytesIO()
        save_trace(buffer, trace)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert loaded.header.as_dict() == trace.header.as_dict()
        assert loaded.num_accesses == trace.num_accesses
        for kernel, kwargs in ((replay_baseline,
                                {"tile_cache_bytes": TILE_CACHE_BYTES}),
                               (replay_tcor,
                                {"total_tile_cache_bytes":
                                 TILE_CACHE_BYTES})):
            _assert_results_equal("SoD", kernel(trace, **kwargs).result,
                                  kernel(loaded, **kwargs).result)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_int64_survives_the_file(self, data):
        """Each section is stored in the narrowest integer dtype that
        holds it; values at every dtype's limits come back unchanged."""
        import numpy as np

        from repro.replay import CompiledTrace, FrameIR, TraceHeader
        from repro.replay.ir import _FRAME_FIELDS, _TRACE_FIELDS

        limits = [-2 ** 63, -2 ** 31 - 1, -2 ** 15, -129, -1, 0, 127, 128,
                  2 ** 15, 2 ** 31, 2 ** 63 - 1]
        values = st.lists(st.one_of(
            st.sampled_from(limits),
            st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)),
            max_size=6)
        frames = [FrameIR(**{name: data.draw(values)
                             for name in _FRAME_FIELDS})
                  for _ in range(data.draw(st.integers(0, 2)))]
        header = TraceHeader(
            alias="GTr", scale=0.05, num_tiles=2, num_primitives=1,
            block_bytes=64, pmd_bytes=4, pmds_per_block=16,
            lists_base=1, tile_list_bytes=4096, attribute_stride=64,
            fb_writes_per_tile=1, l1_estimates={"vertex_l1": 3})
        trace = CompiledTrace(header, frames, **{
            name: np.array(data.draw(values), dtype=np.int64)
            for name in _TRACE_FIELDS})
        buffer = io.BytesIO()
        save_trace(buffer, trace)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert loaded.header.as_dict() == header.as_dict()
        for name in _TRACE_FIELDS:
            array = getattr(loaded, name)
            assert array.dtype == np.int64
            assert array.tolist() == getattr(trace, name).tolist()
        assert len(loaded.frames) == len(frames)
        for frame, back in zip(frames, loaded.frames):
            for name in _FRAME_FIELDS:
                assert getattr(back, name) == getattr(frame, name)

    def test_version_mismatch_fails_to_load(self, monkeypatch):
        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        buffer = io.BytesIO()
        save_trace(buffer, compile_workload(workload))
        buffer.seek(0)
        from repro.replay import ir
        monkeypatch.setattr(ir, "TRACE_IR_VERSION", 999)
        with pytest.raises(ValueError, match="version"):
            load_trace(buffer)


class TestReplayGates:
    """Replay must stand aside whenever the live path is required: the
    forced replay engine refuses, and the default engine falls back to
    the live simulator with the live result."""

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        with pytest.raises(ReplayUnsupportedError):
            simulate(workload, engine="replay")
        assert simulate(workload).result == \
            simulate(workload, engine="live").result

    def test_attached_tracer_forces_live(self):
        from repro.obs import Tracer

        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        obs = Observation(MetricsRegistry(), tracer=Tracer(sinks=[]))
        with pytest.raises(ReplayUnsupportedError):
            simulate(workload, obs=obs, engine="replay")

    def test_global_tracer_forces_live(self):
        from repro.obs import Tracer, activation

        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        with activation(Tracer(sinks=[])):
            with pytest.raises(ReplayUnsupportedError):
                simulate(workload, engine="replay")

    def test_unsupported_geometry_falls_back(self):
        from repro.config import DEFAULT_GPU

        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        small = dataclasses.replace(
            DEFAULT_GPU,
            l2_cache=dataclasses.replace(DEFAULT_GPU.l2_cache,
                                         line_bytes=32))
        config = SimulationConfig(kind="baseline", gpu=small)
        with pytest.raises(ReplayUnsupportedError):
            simulate(workload, config, engine="replay")
        fallback = simulate(workload, config)
        forced = simulate(workload, config, engine="live")
        assert fallback.result == forced.result
        assert (fallback.engine, fallback.replay_refusal) == \
            ("live", "L2 line size != PB block size")
        assert (forced.engine, forced.replay_refusal) == ("live", None)
        replayed = simulate(workload, SimulationConfig(kind="baseline"))
        assert (replayed.engine, replayed.replay_refusal) == ("replay", None)


# ----------------------------------------------------------------------
# Tile Fetcher timing: the fetch kernel against the live timing model
# ----------------------------------------------------------------------
FETCH_SIZES = (64 * KIB, 128 * KIB)


def _fetch_configs(size: int, **options) -> tuple:
    return tuple(SimulationConfig(kind=kind, tile_cache_bytes=size,
                                  **options)
                 for kind in ("baseline", "tcor"))


@functools.cache
def _suite_source(alias: str) -> WorkloadSource:
    """One build per benchmark, shared by the fetch and profile
    gates (the ten sources with their traces hold about 70 MB)."""
    return WorkloadSource.of(
        build_workload(BENCHMARKS[alias], scale=EQUIVALENCE_SCALE))


@pytest.mark.parametrize("alias", BENCHMARK_ORDER)
def test_fetch_timing_bit_identical(alias):
    source = _suite_source(alias)
    for size in FETCH_SIZES:
        for config in _fetch_configs(size):
            live = run_fetch_timing(source, config, engine="live")
            replayed = run_fetch_timing(source, config, engine="replay")
            _assert_results_equal(f"{alias}@{size}", live, replayed)


class _OneTrace:
    """A store that holds one compiled trace."""

    def __init__(self, trace) -> None:
        self.trace = trace

    def get_trace(self, identity):
        return self.trace


@pytest.mark.parametrize("alias", BENCHMARK_ORDER)
def test_trace_profile_equals_the_built_workload(alias, monkeypatch):
    """What experiments read of a workload, derived from its compiled
    trace, equals the built workload's own derivation exactly."""
    from repro.analysis import attribute_access_trace
    from repro.workloads import suite

    workload = _suite_source(alias).workload()
    store = _OneTrace(_suite_source(alias).trace())

    def no_build(*args, **kwargs):
        raise AssertionError("the profile built a workload")

    monkeypatch.setattr(suite, "build_workload", no_build)
    profile = WorkloadSource(suite.WorkloadIdentity.of(workload),
                             store=store).profile()
    assert profile.footprint_bytes / suite.MIB == \
        workload.measured_footprint_mib()
    assert profile.reuse == workload.measured_reuse()
    assert profile.num_primitives == workload.num_primitives
    assert profile.mean_attributes == workload.scenes[0].average_attributes()
    assert profile.attribute_stream == attribute_access_trace(workload)
    assert profile.num_frames == len(workload.traces)
    assert profile == suite.WorkloadProfile.of(workload)


class TestFetchTimingMatrix:
    """A seeded matrix around the defaults: tiny MSHR files that fill,
    short and long memory latencies (background traffic off with the
    long one) and a non-default TCOR split."""

    def test_seeded_matrix(self):
        from repro.config import DEFAULT_GPU, CacheConfig

        rng = random.Random(0xF37C)
        filled = 0
        for alias in rng.sample(BENCHMARK_ORDER, 3):
            source = WorkloadSource.of(
                build_workload(BENCHMARKS[alias], scale=0.05))
            for mshr_entries in (1, 2):
                for latency in (30, 240):
                    gpu = dataclasses.replace(
                        DEFAULT_GPU,
                        tiling=dataclasses.replace(
                            DEFAULT_GPU.tiling, mshr_entries=mshr_entries),
                        memory=dataclasses.replace(
                            DEFAULT_GPU.memory, min_latency_cycles=latency,
                            max_latency_cycles=latency))
                    pl_kib = rng.choice((8, 24, 32))
                    split = TCORConfig(
                        primitive_list_cache=CacheConfig(
                            "primitive_list", pl_kib * KIB),
                        attribute_buffer_bytes=(64 - pl_kib) * KIB)
                    background = latency == 30
                    configs = _fetch_configs(
                        rng.choice(FETCH_SIZES), gpu=gpu,
                        include_background=background) + (
                        SimulationConfig(kind="tcor", tcor=split, gpu=gpu,
                                         include_background=background),)
                    for config in configs:
                        live = run_fetch_timing(source, config,
                                                engine="live")
                        replayed = run_fetch_timing(source, config,
                                                    engine="replay")
                        _assert_results_equal(
                            f"{alias} mshr={mshr_entries} "
                            f"latency={latency}", live, replayed)
                        filled += live.mshr_peak == mshr_entries
        # The MSHR-full stall path must be exercised, not just reachable.
        assert filled

    def test_non_default_l2_geometries(self, overflow_runs):
        rng = random.Random(0xF12C)
        for (size, ways), alias in zip(L2_GEOMETRIES,
                                       rng.sample(BENCHMARK_ORDER, 3)):
            source = WorkloadSource.of(
                build_workload(BENCHMARKS[alias], scale=0.05))
            for config in _fetch_configs(TILE_CACHE_BYTES,
                                         gpu=_with_l2(size, ways)):
                live = run_fetch_timing(source, config, engine="live")
                replayed = run_fetch_timing(source, config, engine="replay")
                _assert_results_equal(f"{alias} L2 {size // KIB}K/{ways}",
                                      live, replayed)
        assert {num_sets for num_sets, _ in overflow_runs} == {
            size // 64 // ways for size, ways in L2_GEOMETRIES}


class TestFetchTimingGates:
    """The fetch kernel follows run_simulation's engine rule, and the
    options the timing model does not model are refused, not ignored."""

    def test_forced_replay_refuses_outside_the_envelope(self):
        from repro.config import DEFAULT_GPU

        source = WorkloadSource.of(
            build_workload(BENCHMARKS["GTr"], scale=0.05))
        wide = dataclasses.replace(
            DEFAULT_GPU,
            l2_cache=dataclasses.replace(DEFAULT_GPU.l2_cache,
                                         line_bytes=128))
        for config in _fetch_configs(TILE_CACHE_BYTES, gpu=wide):
            with pytest.raises(ReplayUnsupportedError):
                run_fetch_timing(source, config, engine="replay")
            assert run_fetch_timing(source, config) == \
                run_fetch_timing(source, config, engine="live")

    def test_env_escape_hatch_forces_live(self, monkeypatch):
        from repro.replay import kernels

        source = WorkloadSource.of(
            build_workload(BENCHMARKS["GTr"], scale=0.05))
        config = SimulationConfig(kind="tcor")
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        with pytest.raises(ReplayUnsupportedError):
            run_fetch_timing(source, config, engine="replay")

        def refuse(*args, **kwargs):
            raise AssertionError("the kernel ran under REPRO_NO_REPLAY")

        monkeypatch.setattr(kernels, "replay_fetch_timing", refuse)
        assert run_fetch_timing(source, config).label == "tcor"

    @pytest.mark.parametrize("engine", ["live", "replay"])
    def test_an_empty_mshr_file_is_refused(self, engine):
        from repro.config import DEFAULT_GPU

        source = WorkloadSource.of(
            build_workload(BENCHMARKS["GTr"], scale=0.05))
        gpu = dataclasses.replace(
            DEFAULT_GPU,
            tiling=dataclasses.replace(DEFAULT_GPU.tiling, mshr_entries=0))
        with pytest.raises(ValueError, match="MSHR"):
            run_fetch_timing(source, SimulationConfig(kind="baseline",
                                                      gpu=gpu),
                             engine=engine)

    @pytest.mark.parametrize("engine", ["auto", "live", "replay"])
    @pytest.mark.parametrize("option", [
        {"kind": "tcor", "l2_enhancements": False},
        {"kind": "tcor", "interleaved_lists": False},
        {"kind": "tcor", "rendering_elimination": True},
        {"kind": "baseline", "rendering_elimination": True},
    ], ids=["no-l2", "contiguous", "re-tcor", "re-baseline"])
    def test_unmodelled_options_raise(self, engine, option):
        from repro.timing import TimingUnsupportedError

        source = WorkloadSource.of(
            build_workload(BENCHMARKS["GTr"], scale=0.05))
        with pytest.raises(TimingUnsupportedError):
            run_fetch_timing(source, SimulationConfig(**option),
                             engine=engine)
