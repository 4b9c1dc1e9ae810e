"""Reference (pre-tuning) implementations of the simulator hot paths.

The tuned helpers in :mod:`repro.tcor.system` hoist allocations and
batch counter updates; these are the straightforward originals, kept as
an executable specification.  ``tests/test_perf_equivalence.py`` swaps
them in for full-system runs and asserts that every
:class:`~repro.tcor.system.SystemResult` counter is bit-identical to
the tuned path across the whole benchmark suite — the gate under which
any future hot-path change must pass.

These functions intentionally mirror the historical code, including the
private ``_evict`` reach-through the public ``evict_matching`` API
replaced (suppressed below, so the lint pass documents rather than
forbids it here).
"""

from __future__ import annotations

from repro.caches.hierarchy import SharedL2
from repro.caches.line import LineMeta
from repro.tcor.l2_policy import TileProgress, line_is_dead
from repro.tcor.requests import L2Request
from repro.workloads.trace import Region

_PB_REGIONS = (Region.PB_LISTS, Region.PB_ATTRIBUTES)


def reference_send(shared: SharedL2,
                   requests: list[L2Request] | tuple[L2Request, ...],
                   counters: dict) -> None:
    """Original ``_send``: one fresh LineMeta and one dict update per
    request."""
    for request in requests:
        meta = LineMeta(region=request.region,
                        last_tile_rank=request.last_tile_rank)
        shared.access(request.address, is_write=request.is_write, meta=meta)
        if request.region in _PB_REGIONS:
            if request.is_write:
                counters["pb_l2_writes"] += 1
            else:
                counters["pb_l2_reads"] += 1


def reference_send_background(shared: SharedL2, accesses) -> None:
    """Original ``_send_background``: allocates a LineMeta per access."""
    for access in accesses:
        shared.access(access.address, is_write=access.is_write,
                      meta=LineMeta(region=access.region))


def reference_writeback_pb_lines(shared: SharedL2,
                                 progress: TileProgress | None) -> None:
    """Original ``_writeback_pb_lines``: snapshot + per-line ``_evict``."""
    l2 = shared.l2
    pb_lines = [
        (set_index, line) for set_index, line in l2.iter_lines()
        if line.meta.region in _PB_REGIONS
    ]
    for set_index, line in pb_lines:
        evicted = l2._evict(set_index, line.tag)  # lint: disable=SIM009
        if not evicted.dirty:
            continue
        if progress is not None and line_is_dead(evicted.meta, progress):
            l2.stats.dead_writebacks_avoided += 1
        else:
            shared.memory.record(is_write=True, region=evicted.meta.region)
