"""Tile Fetcher throughput model (paper Section V-B.3, Figures 23/24).

The paper measures primitives output per cycle by the Tile Fetcher with
an *unlimited* output queue, so the Tiling Engine never stalls on the
Raster Pipeline.  We model the fetch phase with a simple in-order issue
pipeline:

- one PMD is consumed per cycle when its list block is resident; a
  Primitive List (or baseline Tile Cache) miss stalls issue for the L2
  (and, on an L2 miss, main-memory) latency;
- an attribute request that hits is ready the next cycle; a miss
  allocates MSHR entries (one per missing block) and is ready when its
  slowest block returns;
- a full MSHR file stalls issue until an entry retires;
- primitives are delivered to the Rasterizer in order, at most one per
  cycle (the paper's 1-primitive/cycle ceiling).

The binning phase is replayed untimed first, leaving the caches and the
shared L2 in the same state as the traffic simulation.

This event-by-event model over the live cache objects is the reference
oracle: :func:`repro.replay.replay_fetch_timing` computes the same
:class:`ThroughputResult` from the compiled trace, and
:func:`repro.api.run_fetch_timing` chooses between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.hierarchy import MemoryCounters, SharedL2
from repro.caches.line import LineMeta
from repro.caches.mshr import MSHRFile
from repro.caches.policies.lru import LRUPolicy
from repro.caches.set_assoc import SetAssociativeCache
from repro.config import DEFAULT_GPU, GPUConfig, TCORConfig
from repro.pbuffer.layout import (
    ContiguousPBListsLayout,
    InterleavedPBListsLayout,
)
from repro.tcor.attribute_cache import AttributeCache
from repro.tcor.baseline_tile_cache import BaselineTileCache
from repro.tcor.l2_policy import DeadLinePriorityPolicy, TcorSharedL2, TileProgress
from repro.tcor.primitive_list_cache import PrimitiveListCache
from repro.tiling.events import (
    AttributeRead,
    AttributeWrite,
    PmdRead,
    PmdWrite,
    TileDone,
)
from repro.workloads.suite import Workload


# Unlimited output queue: the Rasterizer never back-pressures, so the
# Attribute Cache's in-flight lock window is effectively unbounded.
INFLIGHT_WINDOW = 1 << 20


class TimingUnsupportedError(ValueError):
    """The timing model has no form of a requested option (the L2
    enhancements switched off, contiguous TCOR lists, Rendering
    Elimination), so it refuses instead of ignoring it."""


@dataclass(frozen=True)
class ThroughputResult:
    """Fetch-phase cycle accounting for one configuration."""

    label: str
    alias: str
    primitives_delivered: int
    cycles: int
    issue_stall_cycles: int
    mshr_peak: int

    @property
    def primitives_per_cycle(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.primitives_delivered / self.cycles


class _LatencyProbe:
    """Turns L1 lowering outcomes into request latencies.

    Fill reads go to the shared L2 (mutating it, like the traffic sim);
    writebacks are posted and cost no latency.
    """

    def __init__(self, shared: SharedL2, l2_latency: int,
                 memory_latency: int, dram=None) -> None:
        self.shared = shared
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency
        self.dram = dram

    def block_latencies(self, requests) -> list[int]:
        """Latency of each fill read in an L1 request bundle."""
        latencies = []
        for request in requests:
            meta = LineMeta(region=request.region,
                            last_tile_rank=request.last_tile_rank)
            mem_reads, _ = self.shared.access(
                request.address, is_write=request.is_write, meta=meta)
            if request.is_write:
                continue  # posted writeback
            latency = self.l2_latency
            if mem_reads:
                if self.dram is not None:
                    # Row-buffer-aware latency (DRAMSim2 substitute).
                    latency += self.dram.access(request.address)
                else:
                    latency += self.memory_latency
            latencies.append(latency)
        return latencies


def tile_fetcher_throughput(workload: Workload, system: str = "baseline",
                            gpu: GPUConfig | None = None,
                            tcor: TCORConfig | None = None,
                            total_tile_cache_bytes: int | None = None,
                            include_background: bool = True,
                            dram=None) -> ThroughputResult:
    """Primitives per cycle of the Tile Fetcher (one frame).

    ``system`` is ``"baseline"`` or ``"tcor"``.  Pass a
    :class:`~repro.dram.DRAMModel` as ``dram`` for row-buffer-aware
    memory latencies instead of the flat Table I average.
    """
    if system not in ("baseline", "tcor"):
        raise ValueError("system must be 'baseline' or 'tcor'")
    gpu = gpu or DEFAULT_GPU
    trace = workload.traces[0]
    pb = trace.pb
    l2_latency = gpu.l2_cache.latency_cycles
    memory_latency = gpu.memory.avg_latency_cycles
    progress = TileProgress()

    if system == "baseline":
        if total_tile_cache_bytes is not None:
            gpu = gpu.with_tile_cache_size(total_tile_cache_bytes)
        shared = SharedL2(SetAssociativeCache(
            gpu.l2_cache.num_sets, gpu.l2_cache.associativity,
            gpu.l2_cache.line_bytes, LRUPolicy(), name="l2"), MemoryCounters())
        layout = ContiguousPBListsLayout(workload.screen.num_tiles, pb.pbuffer)
        tile_cache = BaselineTileCache(gpu.tile_cache, layout, pb.attributes,
                                       pb.rank_of_tile)
        read_pmd = tile_cache.read_pmd
        write_pmd = tile_cache.write_pmd
        write_attrs = tile_cache.write_attributes
        read_attrs = tile_cache.read_attributes
    else:
        if tcor is None:
            tcor = (TCORConfig.for_total_size(total_tile_cache_bytes)
                    if total_tile_cache_bytes is not None else TCORConfig())
        policy = DeadLinePriorityPolicy(progress)
        shared = TcorSharedL2(SetAssociativeCache(
            gpu.l2_cache.num_sets, gpu.l2_cache.associativity,
            gpu.l2_cache.line_bytes, policy, name="l2"),
            progress, MemoryCounters())
        layout = InterleavedPBListsLayout(workload.screen.num_tiles,
                                          pb.pbuffer)
        pl_cache = PrimitiveListCache(tcor.primitive_list_cache, layout,
                                      pb.rank_of_tile)
        attr_cache = AttributeCache(tcor, pb.attributes,
                                    inflight_window=INFLIGHT_WINDOW)
        read_pmd = pl_cache.read_pmd
        write_pmd = pl_cache.write_pmd

        def write_attrs(primitive_id):
            record = pb.records[primitive_id]
            return attr_cache.write(primitive_id, record.num_attributes,
                                    record.first_use_rank,
                                    record.last_use_rank).l2_requests

        read_attrs = None  # handled inline below (needs OPT numbers)

    probe = _LatencyProbe(shared, l2_latency, memory_latency, dram=dram)

    # ------------------------------------------------------------------
    # Untimed binning phase (warms caches exactly like the traffic sim).
    # ------------------------------------------------------------------
    for event in trace.build_events:
        if isinstance(event, PmdWrite):
            probe.block_latencies(write_pmd(event.tile_id, event.position))
        elif isinstance(event, AttributeWrite):
            probe.block_latencies(write_attrs(event.primitive_id))

    # ------------------------------------------------------------------
    # Timed fetch phase.
    # ------------------------------------------------------------------
    mshr = MSHRFile(gpu.tiling.mshr_entries)
    tokens = 0
    now = 0
    stall_cycles = 0
    delivered = 0
    last_delivery = 0

    for event in trace.fetch_events:
        if isinstance(event, TileDone):
            progress.tile_done(event.tile_rank)
            if include_background:
                for access in workload.background.tile_accesses(event.tile_id):
                    shared.access(access.address, is_write=access.is_write,
                                  meta=LineMeta(region=access.region))
            continue
        if isinstance(event, PmdRead):
            now += 1  # one PMD consumed per cycle
            latencies = probe.block_latencies(
                read_pmd(event.tile_id, event.position))
            if latencies:
                # The fetcher prefetches list blocks one block ahead, so a
                # block's fetch overlaps the 16 PMDs of the previous one;
                # only the excess stalls issue.
                stall = max(0, max(latencies) - pb.pbuffer.pmds_per_block // 2)
                now += stall
                stall_cycles += stall
            mshr.retire_ready(now)
            continue
        assert isinstance(event, AttributeRead)
        if system == "baseline":
            requests = read_attrs(event.primitive_id)
        else:
            requests = attr_cache.read(
                event.primitive_id, event.num_attributes,
                event.opt_number, event.last_use_rank,
            ).l2_requests
        latencies = probe.block_latencies(requests)
        if not latencies:
            ready = now + 1
        else:
            # Each missing block occupies an MSHR entry.
            ready = now
            for latency in latencies:
                while mshr.full:
                    earliest = mshr.earliest_ready()
                    assert earliest is not None
                    stall_cycles += max(0, earliest - now)
                    now = max(now, earliest)
                    mshr.retire_ready(now)
                # Unique keys: each missing block is independent.
                tokens += 1
                mshr.allocate(tokens, now + latency)
                ready = max(ready, now + latency)
        delivered += 1
        last_delivery = max(ready, last_delivery + 1)
        mshr.retire_ready(now)

    cycles = max(last_delivery, now, 1)
    return ThroughputResult(
        label=system, alias=workload.spec.alias,
        primitives_delivered=delivered, cycles=cycles,
        issue_stall_cycles=stall_cycles, mshr_peak=mshr.peak_occupancy,
    )
