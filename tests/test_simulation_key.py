"""One key: every spelling of a simulation shares one request key,
which is also the store's record key.

A baseline is spelled with or without the (ignored) L2 flag; a 64 KiB
TCOR run by budget, by explicit partition, or by both.  Each set must
give one ``request_key``, coalesce onto one in-flight job and hit the
record the experiment path wrote.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import SimulationConfig
from repro.config import KIB, TCORConfig
from repro.experiments.common import SimulationCache
from repro.parallel import DiskCache, result_to_dict, simulation_key
from repro.serve import scheduler as scheduler_module
from repro.serve import schema
from repro.serve.scheduler import Scheduler
from repro.serve.schema import DONE, JobRequest
from repro.tcor.system import SystemResult

SCALE = 0.05
SIZE = 64 * KIB
SPELLINGS = {
    "baseline": (
        SimulationConfig(kind="baseline", tile_cache_bytes=SIZE),
        SimulationConfig(kind="baseline", tile_cache_bytes=SIZE,
                         l2_enhancements=False),
    ),
    "tcor": (
        SimulationConfig(tile_cache_bytes=SIZE),
        SimulationConfig(tcor=TCORConfig.for_total_size(SIZE)),
        SimulationConfig(tile_cache_bytes=SIZE,
                         tcor=TCORConfig.for_total_size(SIZE)),
    ),
}


def requests(kind: str) -> list[JobRequest]:
    return [JobRequest(alias="GTr", scale=SCALE, config=config)
            for config in SPELLINGS[kind]]


def run_with_scheduler(body, **kwargs):
    async def main():
        sched = Scheduler(
            executor_factory=lambda jobs: ThreadPoolExecutor(jobs),
            batch_window_s=0.01, **kwargs)
        await sched.start()
        try:
            return await body(sched)
        finally:
            await sched.close()

    return asyncio.run(main())


@pytest.mark.parametrize("kind", sorted(SPELLINGS))
def test_spellings_share_one_request_key(kind):
    keys = {schema.request_key(request, "sig") for request in requests(kind)}
    assert len(keys) == 1


def test_the_two_simulations_keep_distinct_keys():
    assert schema.request_key(requests("baseline")[0]) != \
        schema.request_key(requests("tcor")[0])


def test_request_key_is_the_store_record_key():
    for request in requests("baseline") + requests("tcor"):
        assert schema.request_key(request, "sig") == simulation_key(
            request.identity, request.config, "sig")


@pytest.mark.parametrize("kind", sorted(SPELLINGS))
def test_spellings_coalesce_onto_one_in_flight_job(kind, monkeypatch):
    release = threading.Event()
    batches = []

    def worker(alias, scale, entries, anim_payload=None, store=None):
        batches.append(entries)
        release.wait(5)
        return [{"key": key, "result": result_to_dict(
                    SystemResult(label=kind, alias=alias)),
                 "metrics": {}, "invariant_failures": []}
                for key, _config in entries]
    monkeypatch.setattr(scheduler_module, "simulate_request_batch", worker)

    async def body(sched):
        submitted = [sched.submit(request) for request in requests(kind)]
        release.set()
        job = submitted[0][0]
        await asyncio.wait_for(job.done.wait(), 5)
        assert all(other is job for other, _ in submitted)
        assert [reused for _, reused in submitted] == \
            [False] + [True] * (len(submitted) - 1)
        assert job.state == DONE
        assert sched.metrics.value("coalesced") == len(submitted) - 1
        assert len(batches) == 1 and len(batches[0]) == 1

    run_with_scheduler(body)


@pytest.mark.parametrize("kind", sorted(SPELLINGS))
def test_spellings_hit_the_record_the_experiment_path_wrote(
        kind, tmp_path, monkeypatch):
    disk = DiskCache(tmp_path, signature="sig")
    cache = SimulationCache(scale=SCALE, aliases=("GTr",), disk=disk)
    expected = (cache.baseline("GTr", SIZE) if kind == "baseline"
                else cache.tcor("GTr", SIZE))

    def bomb(*args):
        raise AssertionError("a stored simulation reached the pool")
    monkeypatch.setattr(scheduler_module, "simulate_request_batch", bomb)

    for request in requests(kind):
        async def body(sched, request=request):
            job, _ = sched.submit(request)
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.state == DONE and job.lane == "disk"
            return job.record["result"]

        assert run_with_scheduler(body, disk=disk) == result_to_dict(expected)
