"""The router's tiered result cache (memory LRU over the disk store)."""

from __future__ import annotations

import json

import pytest

from repro.api import SimulationConfig
from repro.parallel import DiskCache, ResultTier
from repro.serve.schema import JobRequest
from repro.serve.tiers import (
    DiskRecordTier,
    MemoryTier,
    TieredResultCache,
    record_for_result,
)
from repro.tcor.system import SystemResult


def fake_record(tag: str, pad: int = 0) -> dict:
    record = record_for_result(
        SystemResult(label=f"run-{tag}", alias="GTr"))
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
        assert (tier.hits, tier.misses) == (1, 1)
        assert len(tier) == 1 and tier.size_bytes == cost_of(record)

    def test_byte_budget_evicts_cold_end(self):
        one = fake_record("a")
        tier = MemoryTier(3 * cost_of(one) + 2)
        for tag in ("a", "b", "c"):
            tier.put(tag, fake_record(tag))
        tier.put("d", fake_record("d"))  # over budget: "a" goes
        assert tier.get("a") is None
        assert tier.get("d") is not None
        assert tier.evictions == 1
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

    def test_resize_shrinks_to_fit(self):
        tier = MemoryTier(1 << 20)
        for tag in ("a", "b", "c", "d"):
            tier.put(tag, fake_record(tag))
        tier.resize(cost_of(fake_record("a")) + 1)
        assert len(tier) == 1
        assert tier.get("d") is not None  # hottest survivor

    def test_is_a_result_tier(self):
        assert isinstance(MemoryTier(), ResultTier)
        assert MemoryTier().stats_line().startswith("memory tier:")


@pytest.fixture
def disk(tmp_path):
    return DiskCache(tmp_path, signature="test-sig")


class TestDiskRecordTier:
    def test_round_trip_through_the_store(self, disk):
        tier = DiskRecordTier(disk)
        request = JobRequest(alias="GTr", scale=0.05)
        record = fake_record("a")
        record["metrics"] = {}  # disk records carry no metrics
        assert tier.get("key", request) is None
        tier.put("key", record, request)
        loaded = tier.get("key", request)
        assert loaded is not None
        assert loaded["result"] == record["result"]
        assert (tier.hits, tier.misses) == (1, 1)

    def test_non_standard_requests_round_trip_through_the_store(self, disk):
        tier = DiskRecordTier(disk)
        plain = JobRequest(alias="GTr", scale=0.05)
        custom = JobRequest(alias="GTr", scale=0.05,
                            config=SimulationConfig(
                                include_background=False))
        tier.put("key", fake_record("a"), custom)
        assert tier.get("key", custom)["result"] == \
            fake_record("a")["result"]
        assert tier.get("key", plain) is None
        assert (tier.hits, tier.misses) == (1, 1)

    def test_missing_context_is_a_miss(self, disk):
        tier = DiskRecordTier(disk)
        assert tier.get("key", None) is None


class TestTieredResultCache:
    def test_signature_comes_from_the_disk_store(self, disk):
        assert TieredResultCache().signature == ""
        assert TieredResultCache(disk=disk).signature == "test-sig"

    def test_disk_hit_promotes_into_memory(self, disk):
        tiered = TieredResultCache(memory=MemoryTier(1 << 20), disk=disk)
        request = JobRequest(alias="GTr", scale=0.05)
        record = fake_record("a")
        record["metrics"] = {}
        tiered.disk_tier.put("key", record, request)
        assert tiered.lookup_memory("key") is None
        hit = tiered.lookup_disk("key", request)
        assert hit is not None
        assert tiered.lookup_memory("key") == hit  # promoted
        snapshot = tiered.snapshot()
        assert snapshot["disk.hits"] == 1
        assert snapshot["memory.entries"] == 1

    def test_admit_is_memory_only(self, disk):
        """Disk population stays the backends' write-through; the
        router's admit must never double the file traffic."""
        tiered = TieredResultCache(memory=MemoryTier(1 << 20), disk=disk)
        request = JobRequest(alias="GTr", scale=0.05)
        tiered.admit("key", fake_record("a"))
        assert tiered.lookup_memory("key") is not None
        assert tiered.disk_tier.get("key", request) is None

    def test_memoryless_cache_never_admits(self, disk):
        tiered = TieredResultCache(disk=disk)
        tiered.admit("key", fake_record("a"))
        assert tiered.lookup_memory("key") is None
        assert "memory.hits" not in tiered.snapshot()
