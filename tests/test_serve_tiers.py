"""The router's result tiers: its memory tier over the shared store.

A key resolves through the router memo, the :class:`MemoryTier`, the
shared :class:`DiskCache` and finally a shard; the shard here is a
:class:`ScriptedBackend`.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import SimulationConfig
from repro.parallel import DiskCache, result_to_dict
from repro.serve.cluster import MemoryTier
from repro.serve.schema import JobRequest
from repro.tcor.system import SystemResult
from tests.serve_fakes import (
    RESULT,
    ScriptedBackend,
    finished,
    make_router,
    run_started,
)

STORED = SystemResult(label="stored-run", alias="GTr")


def fake_record(tag: str, pad: int = 0) -> dict:
    record = {"result": result_to_dict(
        SystemResult(label=f"run-{tag}", alias="GTr")),
        "metrics": {}, "invariant_failures": []}
    if pad:
        record["metrics"] = {"pad": "x" * pad}
    return record


def cost_of(record: dict) -> int:
    return len(json.dumps(record, sort_keys=True, default=str))


class TestMemoryTier:
    def test_put_get_round_trip_and_counters(self):
        tier = MemoryTier(1 << 20)
        record = fake_record("a")
        assert tier.get("k") is None
        tier.put("k", record)
        assert tier.get("k") is record
        assert len(tier) == 1 and tier.size_bytes == cost_of(record)

    def test_byte_budget_evicts_cold_end(self):
        one = fake_record("a")
        tier = MemoryTier(3 * cost_of(one) + 2)
        for tag in ("a", "b", "c"):
            tier.put(tag, fake_record(tag))
        tier.put("d", fake_record("d"))  # over budget: "a" goes
        assert tier.get("a") is None
        assert tier.get("d") is not None
        assert len(tier) == 3
        assert tier.size_bytes <= tier.capacity_bytes

    def test_get_refreshes_recency(self):
        one = fake_record("a")
        tier = MemoryTier(3 * cost_of(one) + 2)
        for tag in ("a", "b", "c"):
            tier.put(tag, fake_record(tag))
        tier.get("a")                    # "b" is now the coldest
        tier.put("d", fake_record("d"))
        assert tier.get("b") is None
        assert tier.get("a") is not None

    def test_oversized_record_is_refused(self):
        tier = MemoryTier(64)
        tier.put("big", fake_record("big", pad=4096))
        assert len(tier) == 0 and tier.size_bytes == 0

    def test_replacing_a_key_does_not_leak_bytes(self):
        tier = MemoryTier(1 << 20)
        tier.put("k", fake_record("a"))
        tier.put("k", fake_record("a", pad=100))
        assert len(tier) == 1
        assert tier.size_bytes == cost_of(fake_record("a", pad=100))


@pytest.fixture
def disk(tmp_path):
    return DiskCache(tmp_path, signature="test-sig")


@pytest.fixture
def backend():
    backend = ScriptedBackend()
    yield backend
    backend.release.set()


class TestDiskRecordTier:
    """The shared store as the router's disk tier."""

    def test_round_trip_through_the_store(self, disk, backend,
                                          monkeypatch):
        request = JobRequest(alias="GTr", scale=0.05)
        disk.put_result(request.identity, request.config, STORED)

        async def body(router):
            job = await finished(router.submit(request)[0])
            assert job.lane == "disk"
            payload = router.result_payload(job)
            assert payload["result"] == result_to_dict(STORED)
            assert payload["metrics"] == {}  # records carry no snapshot
            assert router.metrics.value("tier.disk_hits") == 1

        run_started(make_router(backend, monkeypatch, disk=disk), body)
        assert backend.computed == 0

    def test_non_standard_requests_round_trip_through_the_store(
            self, disk, backend, monkeypatch):
        plain = JobRequest(alias="GTr", scale=0.05)
        custom = JobRequest(alias="GTr", scale=0.05,
                            config=SimulationConfig(
                                include_background=False))
        disk.put_result(custom.identity, custom.config, STORED)

        async def body(router):
            assert (await finished(router.submit(custom)[0])).lane \
                == "disk"
            assert (await finished(router.submit(plain)[0])).lane \
                == "pool"
            assert router.metrics.value("tier.disk_hits") == 1
            assert router.metrics.value("tier.misses") == 1

        run_started(make_router(backend, monkeypatch, disk=disk), body)


class TestTieredResultCache:
    """Router memo, then memory tier, then store, then a shard."""

    def test_signature_comes_from_the_disk_store(self, disk, backend,
                                                 monkeypatch):
        assert make_router(backend, monkeypatch).signature == ""
        assert make_router(backend, monkeypatch,
                           disk=disk).signature == "test-sig"

    def test_disk_hit_promotes_into_memory(self, disk, backend,
                                           monkeypatch):
        warm = JobRequest(alias="GTr", scale=0.05)
        other = JobRequest(alias="GTr", scale=0.05,
                           config=SimulationConfig(kind="baseline"))
        disk.put_result(warm.identity, warm.config, STORED)

        async def body(router):
            first = await finished(router.submit(warm)[0])
            assert first.lane == "disk"
            await finished(router.submit(other)[0])  # evicts the memo
            repeat, reused = router.submit(warm)
            assert not reused and repeat.lane == "memory"
            assert repeat.record == first.record
            assert router.metrics.value("tier.memory_hits") == 1
            assert router.metrics.value("tier.disk_hits") == 1

        run_started(make_router(backend, monkeypatch, disk=disk,
                                memory=MemoryTier(1 << 20),
                                memo_limit=1), body)

    def test_admit_is_memory_only(self, disk, backend, monkeypatch):
        """Disk population stays the backends' write-through; a
        completion at the router must never double the file
        traffic."""
        request = JobRequest(alias="GTr", scale=0.05)
        memory = MemoryTier(1 << 20)

        async def body(router):
            job = await finished(router.submit(request)[0])
            assert job.lane == "pool"
            assert memory.get(job.key)["result"] == result_to_dict(RESULT)

        run_started(make_router(backend, monkeypatch, disk=disk,
                                memory=memory), body)
        assert disk.get_result(request.identity, request.config) is None
        assert disk.stores == 0

    def test_memoryless_cache_never_admits(self, backend, monkeypatch):
        first = JobRequest(alias="GTr", scale=0.05)
        other = JobRequest(alias="GTr", scale=0.05,
                           config=SimulationConfig(kind="baseline"))

        async def body(router):
            await finished(router.submit(first)[0])
            await finished(router.submit(other)[0])  # evicts the memo
            repeat = await finished(router.submit(first)[0])
            assert repeat.lane == "pool"
            assert router.metrics.value("tier.memory_hits") == 0

        run_started(make_router(backend, monkeypatch, memo_limit=1), body)
        assert backend.computed == 3

    def test_memory_tier_is_used_only_on_the_loop(self, disk, backend,
                                                  monkeypatch):
        """Promotion of a disk hit must happen on the event loop, where
        submissions read the tier: an executor thread moving entries
        while the loop reads them broke the LRU's bookkeeping."""
        class RecordingTier(MemoryTier):
            def __init__(self, capacity_bytes):
                super().__init__(capacity_bytes)
                self.threads = []

            def get(self, key):
                self.threads.append(threading.get_ident())
                return super().get(key)

            def put(self, key, record):
                self.threads.append(threading.get_ident())
                super().put(key, record)

        memory = RecordingTier(1 << 20)
        request = JobRequest(alias="GTr", scale=0.05)
        disk.put_result(request.identity, request.config, STORED)

        async def body(router):
            job = await finished(router.submit(request)[0])
            assert job.lane == "disk"
            return threading.get_ident()

        loop_thread = run_started(
            make_router(backend, monkeypatch, disk=disk, memory=memory),
            body)
        assert len(memory.threads) == 2  # the submit's get, the promotion
        assert set(memory.threads) == {loop_thread}
