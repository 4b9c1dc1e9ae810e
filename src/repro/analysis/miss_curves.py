"""Replacement-policy miss curves over the PB-Attributes stream.

Figures 1 and 11-13 compare policies on the L1 Attribute Cache access
stream at *primitive* granularity: the Polygon List Builder's write per
primitive followed by the Tile Fetcher's read per (tile, primitive)
pair.  These helpers extract that stream from a workload and sweep cache
size / associativity / policy over it.

LRU fully-associative curves use single-pass Mattson stack analysis;
everything else is simulated directly (offline Belady via the lazy-heap
policy, so even multi-thousand-way sweeps stay fast).
"""

from __future__ import annotations

from repro.analysis.lower_bound import lower_bound_ratio, primitives_capacity
from repro.caches.mattson import MattsonStack
from repro.caches.policies import BeladyOPT, make_policy
from repro.caches.set_assoc import SetAssociativeCache
from repro.tiling.events import AttributeRead, AttributeWrite
from repro.workloads.suite import Workload, WorkloadProfile

KIB = 1024


def attribute_access_trace(workload: Workload) -> list[int]:
    """Primitive-ID access stream of the Attribute Cache (one frame):
    binning-order writes, then traversal-order reads."""
    trace: list[int] = []
    tiling = workload.traces[0]
    for event in tiling.build_events:
        if isinstance(event, AttributeWrite):
            trace.append(event.primitive_id)
    for event in tiling.fetch_events:
        if isinstance(event, AttributeRead):
            trace.append(event.primitive_id)
    return trace


def policy_miss_ratio(trace: list[int], capacity_primitives: int,
                      policy_name: str, associativity: int | None = None,
                      **policy_kwargs) -> float:
    """Miss ratio of one policy on a primitive-ID trace.

    ``associativity=None`` means fully associative.  ``policy_name``
    accepts every :func:`~repro.caches.policies.make_policy` name plus
    ``"belady"``.
    """
    if not trace:
        return 0.0
    capacity = max(1, capacity_primitives)
    ways = capacity if associativity is None else min(associativity, capacity)
    num_sets = max(1, capacity // ways)
    if policy_name == "belady":
        policy = BeladyOPT.from_trace(trace)
    else:
        policy = make_policy(policy_name, **policy_kwargs)
    # One "line" per primitive; line_bytes=1 makes addresses primitive IDs.
    cache = SetAssociativeCache(num_sets=num_sets, ways=ways, line_bytes=1,
                                policy=policy, name=f"sweep-{policy_name}")
    for primitive_id in trace:
        cache.access(primitive_id)
    return cache.stats.miss_ratio


def lru_fully_associative_curve(trace: list[int],
                                capacities: list[int]) -> dict[int, float]:
    """Fully associative LRU miss ratios for many capacities, one pass."""
    stack = MattsonStack(trace_length_hint=len(trace))
    for primitive_id in trace:
        stack.record(primitive_id)
    total = max(1, len(trace))
    return {c: stack.misses_for_capacity(c) / total for c in capacities}


def suite_miss_curve(workloads: list[Workload | WorkloadProfile],
                     sizes_kib: list[int],
                     policy_name: str, associativity: int | None = None,
                     include_lower_bound: bool = False,
                     **policy_kwargs) -> dict:
    """Suite-average miss ratio per cache size.

    ``workloads`` holds built workloads or their :class:`WorkloadProfile`
    (the experiment providers pass the latter, derived from compiled
    traces).  Returns ``{"sizes_kib": [...], "miss_ratio": [...]}``
    (plus ``"lower_bound"`` when requested).  Capacity in primitives is
    derived per workload from its measured mean attribute count, so a
    KiB size means the same storage budget for every benchmark.
    """
    per_size: list[float] = [0.0] * len(sizes_kib)
    bounds: list[float] = [0.0] * len(sizes_kib)
    for workload in workloads:
        if not isinstance(workload, WorkloadProfile):
            workload = WorkloadProfile.of(workload)
        trace = workload.attribute_stream
        mean_attrs = workload.mean_attributes
        capacities = [
            primitives_capacity(size * KIB, mean_attrs) for size in sizes_kib
        ]
        total_primitives = len(set(trace))
        if policy_name == "lru" and associativity is None:
            curve = lru_fully_associative_curve(trace, capacities)
            ratios = [curve[c] for c in capacities]
        else:
            ratios = [
                policy_miss_ratio(trace, capacity, policy_name,
                                  associativity, **policy_kwargs)
                for capacity in capacities
            ]
        for index, ratio in enumerate(ratios):
            per_size[index] += ratio / len(workloads)
        if include_lower_bound:
            for index, capacity in enumerate(capacities):
                bounds[index] += lower_bound_ratio(
                    total_primitives, capacity, len(trace)) / len(workloads)
    result = {"sizes_kib": list(sizes_kib), "miss_ratio": per_size}
    if include_lower_bound:
        result["lower_bound"] = bounds
    return result
