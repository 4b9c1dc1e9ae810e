"""One simulation path: every entry point returns the same results.

``api.simulate``, the serial provider, the pool's ``simulate_job_batch``
and serve's ``simulate_request_batch`` all reach the engines through
``repro.api.run_simulation``.  The contract is checked on one small
benchmark for the suite configs, an animated Rendering Elimination
request and a custom GPU the replay kernels refuse, under the default
engine and under ``REPRO_NO_REPLAY=1``; so is the providers' Tile
Fetcher throughput against the live timing model.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import api
from repro.anim import AnimationSpec
from repro.api import SimulationConfig, WorkloadSource
from repro.config import DEFAULT_GPU, KIB
from repro.experiments.common import SimulationCache
from repro.parallel import DiskCache, SimJob, result_from_dict, \
    simulate_job_batch
from repro.replay import ReplayUnsupportedError
from repro.serve import schema
from repro.serve.worker import simulate_request_batch
from repro.workloads import suite
from repro.workloads.suite import BENCHMARKS, WorkloadIdentity

ALIAS = "GTr"
SCALE = 0.05
SIZE = 64 * KIB
JOBS = (SimJob("baseline", ALIAS, SIZE), SimJob("tcor", ALIAS, SIZE),
        SimJob("tcor_no_l2", ALIAS, SIZE))
ANIM = AnimationSpec(frames=2, path="orbit", churn=0.5, seed=1)
RE = SimulationConfig(tile_cache_bytes=SIZE, rendering_elimination=True)
# L2 lines narrower than a Parameter Buffer block: the kernels refuse it.
CUSTOM_GPU = SimulationConfig(
    kind="baseline", tile_cache_bytes=SIZE,
    gpu=dataclasses.replace(DEFAULT_GPU, l2_cache=dataclasses.replace(
        DEFAULT_GPU.l2_cache, line_bytes=32)))


def served(configs, anim=None, store=None) -> list:
    entries = tuple((str(index), schema.config_to_payload(config))
                    for index, config in enumerate(configs))
    anim_payload = schema.anim_to_payload(anim) if anim else None
    records = simulate_request_batch(ALIAS, SCALE, entries, anim_payload,
                                     store)
    assert all("error" not in record for record in records), records
    return [result_from_dict(record["result"]) for record in records]


@pytest.fixture(params=["default", "REPRO_NO_REPLAY"])
def engine_env(request, monkeypatch):
    if request.param == "REPRO_NO_REPLAY":
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    return request.param


def test_every_entry_point_returns_the_same_results(engine_env):
    configs = [job.config for job in JOBS] + [CUSTOM_GPU]
    workload = suite.build_workload(BENCHMARKS[ALIAS], scale=SCALE)
    direct = [api.simulate(workload, config).result for config in configs]

    provider = SimulationCache(scale=SCALE, aliases=(ALIAS,))
    assert [provider.baseline(ALIAS, SIZE), provider.tcor(ALIAS, SIZE),
            provider.tcor(ALIAS, SIZE, l2_enhancements=False)] == direct[:3]
    assert provider._run(ALIAS, CUSTOM_GPU) == direct[3]
    assert [result for _, result
            in simulate_job_batch(ALIAS, SCALE, JOBS)] == direct[:3]
    assert served(configs) == direct


def test_animated_re_request_matches_across_entry_points(engine_env):
    identity = WorkloadIdentity(BENCHMARKS[ALIAS], SCALE, ANIM)
    direct = api.simulate(identity.build(), RE).result
    assert direct.tiles_total > 0
    assert api.run_simulation(WorkloadSource(identity), RE) == direct
    assert served([RE], anim=ANIM) == [direct]


class _NoWire:
    """A serve client that fails any call: a provider computing fetch
    throughput locally never makes one."""

    def __getattr__(self, name):
        raise AssertionError(f"fetch throughput went over the wire "
                             f"({name})")


def test_providers_compute_fetch_throughput_locally(engine_env):
    from repro.obs.registry import MetricsRegistry
    from repro.serve.handle import ServeHandle
    from repro.timing import tile_fetcher_throughput

    workload = suite.build_workload(BENCHMARKS[ALIAS], scale=SCALE)
    kinds = ("baseline", "tcor")
    direct = [tile_fetcher_throughput(workload, kind,
                                      total_tile_cache_bytes=SIZE)
              for kind in kinds]
    for provider in (SimulationCache(scale=SCALE, aliases=(ALIAS,)),
                     ServeHandle(_NoWire(), scale=SCALE, aliases=(ALIAS,))):
        assert [provider.fetch_throughput(ALIAS, kind, SIZE)
                for kind in kinds] == direct
        # Memoized per cell, and not exported as a sim.* result.
        assert provider.fetch_throughput(ALIAS, "tcor", SIZE) \
            is provider.fetch_throughput(ALIAS, "tcor", SIZE)
        assert provider.export_metrics(MetricsRegistry()) == 0


def test_the_custom_gpu_is_outside_the_replay_envelope():
    workload = suite.build_workload(BENCHMARKS[ALIAS], scale=SCALE)
    with pytest.raises(ReplayUnsupportedError):
        api.simulate(workload, CUSTOM_GPU, engine="replay")


def test_second_batch_replays_the_stored_trace(tmp_path, monkeypatch):
    store = DiskCache(tmp_path)
    baseline, tcor = JOBS[0].config, JOBS[1].config
    (first,) = served([baseline], store=store)
    expected = api.simulate(
        suite.build_workload(BENCHMARKS[ALIAS], scale=SCALE), tcor).result

    def bomb(*args, **kwargs):
        raise AssertionError("the workload was rebuilt despite a stored "
                             "trace")
    monkeypatch.setattr(suite, "build_workload", bomb)
    assert served([tcor, baseline], store=store) == [expected, first]


def test_worker_reports_each_failing_entry():
    # An infinite orbit amplitude fails the workload build inside every
    # entry's simulate() call; the worker answers each entry with its
    # error instead of dropping it.
    entries = tuple((key, schema.config_to_payload(RE))
                    for key in ("first", "second"))
    anim = AnimationSpec(frames=2, amplitude=math.inf)
    records = simulate_request_batch(ALIAS, SCALE, entries,
                                     schema.anim_to_payload(anim))
    assert records == [
        {"key": "first", "error": "ValueError: math domain error"},
        {"key": "second", "error": "ValueError: math domain error"},
    ]
