"""The router's tiered result cache: memory LRU over the shared disk.

Two :class:`~repro.parallel.store.ResultTier` implementations plus the
composite the cluster router actually holds:

- :class:`MemoryTier` — a bounded in-memory LRU keyed by request key.
  The shape follows the classic tile-cache design (an ordered recency
  list over a key → record map, evicting from the cold end while over
  budget), sized in *bytes* of serialized record so one pathological
  result cannot silently displace hundreds of small ones;
- :class:`DiskRecordTier` — the existing concurrent-writer-safe
  :class:`~repro.parallel.store.DiskCache` adapted to the tier
  contract.  The request key *is* the store's record key, so every
  request reaches the store (the same records the single-node
  scheduler's warm lane and the experiment runner use);
- :class:`TieredResultCache` — memory first, then disk, with a
  disk hit promoted into the memory tier so the next lookup for a hot
  key never leaves the router process.

The memory tier is pure dict work and safe to call on the event loop;
every disk probe is file I/O and must be pushed to an executor — the
composite splits its API accordingly (``lookup_memory`` vs. the
blocking ``lookup_disk``).
"""

from __future__ import annotations

import json
from collections import OrderedDict

from repro.parallel.store import ResultTier, result_from_dict, result_to_dict
from repro.serve.schema import JobRequest

DEFAULT_MEMORY_TIER_BYTES = 64 * 1024 * 1024


def record_for_result(result, *, metrics=None,
                      invariant_failures=()) -> dict:
    """A tier record from one ``SystemResult`` (disk records carry no
    metrics snapshot, exactly like the single-node disk-warm lane)."""
    return {"result": result_to_dict(result),
            "metrics": dict(metrics or {}),
            "invariant_failures": list(invariant_failures)}


class MemoryTier(ResultTier):
    """Bounded in-memory LRU of finished-job records.

    ``capacity_bytes`` bounds the sum of serialized record sizes; a
    record larger than the whole budget is refused outright (caching
    it would just evict everything else for one entry).  ``get``
    refreshes recency; eviction pops the least-recently-used end.
    """

    name = "memory"

    def __init__(self, capacity_bytes: int = DEFAULT_MEMORY_TIER_BYTES
                 ) -> None:
        super().__init__()
        self.capacity_bytes = max(0, int(capacity_bytes))
        self.size_bytes = 0
        self.evictions = 0
        self._records: OrderedDict[str, tuple[dict, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str, context=None) -> dict | None:
        entry = self._records.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._records.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: str, record: dict, context=None) -> None:
        cost = len(json.dumps(record, sort_keys=True, default=str))
        if cost > self.capacity_bytes:
            return
        stale = self._records.pop(key, None)
        if stale is not None:
            self.size_bytes -= stale[1]
        self._records[key] = (record, cost)
        self.size_bytes += cost
        while self.size_bytes > self.capacity_bytes and self._records:
            _, (_, freed) = self._records.popitem(last=False)
            self.size_bytes -= freed
            self.evictions += 1

    def resize(self, capacity_bytes: int) -> None:
        """Shrink (or grow) the budget, evicting cold entries to fit."""
        self.capacity_bytes = max(0, int(capacity_bytes))
        while self.size_bytes > self.capacity_bytes and self._records:
            _, (_, freed) = self._records.popitem(last=False)
            self.size_bytes -= freed
            self.evictions += 1

    def clear(self) -> None:
        self._records.clear()
        self.size_bytes = 0


class DiskRecordTier(ResultTier):
    """The shared :class:`DiskCache`, spoken to through request keys.

    ``context`` must be the originating :class:`JobRequest`: the store
    derives the record key from its identity and config, which is the
    request key itself.  Both methods do file I/O — callers on an event
    loop go through an executor.
    """

    name = "disk"

    def __init__(self, disk) -> None:
        super().__init__()
        self.disk = disk

    def get(self, key: str, context=None) -> dict | None:
        hit = None
        if isinstance(context, JobRequest):
            hit = self.disk.get_result(context.identity, context.config)
        if hit is None:
            self.misses += 1
            return None
        self.hits += 1
        return record_for_result(hit)

    def put(self, key: str, record: dict, context=None) -> None:
        result = record.get("result")
        if isinstance(context, JobRequest) and isinstance(result, dict):
            self.disk.put_result(context.identity, context.config,
                                 result_from_dict(result))


class TieredResultCache:
    """Memory tier over the shared disk store, with promotion.

    The router consults :meth:`lookup_memory` synchronously on every
    submission (hot keys never suspend), and pushes
    :meth:`lookup_disk` to an executor for the cold path.  Completed
    and disk-served records are admitted to the memory tier via
    :meth:`admit`, so key affinity turns into actual residency.
    """

    def __init__(self, memory: MemoryTier | None = None,
                 disk=None) -> None:
        self.memory = memory
        self.disk_tier = DiskRecordTier(disk) if disk is not None else None

    @property
    def signature(self) -> str:
        """The simulator-code signature request keys are derived with
        (empty without a disk store, mirroring the scheduler)."""
        if self.disk_tier is None:
            return ""
        return getattr(self.disk_tier.disk, "signature", "") or ""

    def lookup_memory(self, key: str) -> dict | None:
        if self.memory is None:
            return None
        return self.memory.get(key)

    def lookup_disk(self, key: str, request: JobRequest) -> dict | None:
        """Blocking disk lookup (executor territory); a hit is
        promoted into the memory tier."""
        if self.disk_tier is None:
            return None
        record = self.disk_tier.get(key, request)
        if record is not None and self.memory is not None:
            self.memory.put(key, record)
        return record

    def admit(self, key: str, record: dict) -> None:
        """Memory-tier write for one finished record.  Disk population
        stays the backends' write-through (they share the store), so
        the router never doubles the file traffic."""
        if self.memory is not None:
            self.memory.put(key, record)

    def snapshot(self) -> dict:
        """Flat counters for the metrics exporter."""
        counts: dict[str, float] = {}
        if self.memory is not None:
            counts["memory.hits"] = self.memory.hits
            counts["memory.misses"] = self.memory.misses
            counts["memory.entries"] = len(self.memory)
            counts["memory.bytes"] = self.memory.size_bytes
            counts["memory.evictions"] = self.memory.evictions
        if self.disk_tier is not None:
            counts["disk.hits"] = self.disk_tier.hits
            counts["disk.misses"] = self.disk_tier.misses
        return counts
