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


def _assert_results_equal(alias, live, replayed) -> None:
    # Field-by-field so a regression names the exact counter.
    for field in dataclasses.fields(type(live)):
        assert getattr(live, field.name) == getattr(replayed, field.name), \
            f"{alias}: {live.label}.{field.name} diverged"


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
        assert dict(live.metrics) == dict(replayed.metrics), \
            f"{alias}: {live.result.label} metrics diverged"


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
                assert dict(live.metrics) == dict(replayed.metrics), \
                    f"{alias}: metrics diverged for {config}"


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
                live = simulate(workload, config, engine="live")
                replayed = simulate(workload, config, engine="replay")
                label = f"{alias} f{frames} churn={churn} {kind} " \
                        f"re={re_on}"
                _assert_results_equal(label, live.result, replayed.result)
                assert dict(live.metrics) == dict(replayed.metrics), \
                    f"{label}: metrics diverged"
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
        assert simulate(workload, config).result == \
            simulate(workload, config, engine="live").result


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
