"""The miss engine: policy miss counts over a primitive-ID stream.

Figures 1 and 11-13 and the lookahead experiment count the misses of
one replacement policy on the Attribute Cache's primitive stream at
many (capacity, associativity) points.  Each policy here is one kernel,
a closure over a plain ``list`` of ints that returns the miss count,
at :func:`~repro.analysis.miss_curves.policy_miss_ratio`'s geometry:
``ways = min(associativity, capacity)`` (all of ``capacity`` when fully
associative), ``capacity // ways`` sets, and set ``tag % num_sets``.
Each set keeps only what its policy reads:

- ``lru``: a recency-ordered dict; the victim is its first line.
- ``belady``: OPT without bypass.  Resident tags map to their next use
  (:func:`~repro.caches.policies.belady.next_use_table`), and a lazily
  pruned heap per set keyed ``(-next use, tag)`` yields the victim.
- ``mru``: the victim is the set's most recently touched tag.
- ``drrip``: RRIP values in insertion order, one PSEL counter and one
  BRRIP insertion counter for the cache, as
  :class:`~repro.caches.policies.rrip.DRRIPPolicy`.

Tie-breaking follows the policy objects, so the engine reproduces
:func:`~repro.analysis.miss_curves.policy_miss_ratio` (a
``SetAssociativeCache`` driven by the policy object), which stays the
oracle and the path for every other policy.  tests/test_miss_engine.py
holds the two equal on the figures' cells and on generated streams.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush
from typing import Callable, Sequence

from repro.caches.policies.belady import next_use_table


def cache_geometry(capacity_primitives: int,
                   associativity: int | None) -> tuple[int, int]:
    """``(num_sets, ways)`` of a cache holding ``capacity_primitives``
    lines (``associativity=None``: fully associative)."""
    capacity = max(1, capacity_primitives)
    ways = capacity if associativity is None else min(associativity, capacity)
    return max(1, capacity // ways), ways


def _lru(num_sets: int, ways: int) -> Callable[[Sequence[int]], int]:
    def misses(trace: Sequence[int]) -> int:
        # OrderedDict: evicting from the front of a plain dict rescans
        # the deleted slots there, which a thousand-way set feels.
        sets = [OrderedDict() for _ in range(num_sets)]
        count = 0
        for tag in trace:
            lines = sets[tag % num_sets]
            if tag in lines:
                lines.move_to_end(tag)
                continue
            count += 1
            if len(lines) >= ways:
                lines.popitem(last=False)
            lines[tag] = None
        return count
    return misses


def _belady(num_sets: int, ways: int,
            next_use: Sequence[int] | None = None
            ) -> Callable[[Sequence[int]], int]:
    def misses(trace: Sequence[int]) -> int:
        upcoming = next_use_table(trace) if next_use is None else next_use
        resident: dict[int, int] = {}  # tag -> its next use
        heaps: list[list] = [[] for _ in range(num_sets)]
        filled = [0] * num_sets
        count = 0
        for tag, nxt in zip(trace, upcoming):
            index = tag % num_sets
            heap = heaps[index]
            if tag not in resident:
                count += 1
                if filled[index] < ways:
                    filled[index] += 1
                else:
                    while True:
                        neg_next, victim = heappop(heap)
                        if resident.get(victim) == -neg_next:
                            break
                    del resident[victim]
            resident[tag] = nxt
            heappush(heap, (-nxt, tag))
        return count
    return misses


def _mru(num_sets: int, ways: int) -> Callable[[Sequence[int]], int]:
    def misses(trace: Sequence[int]) -> int:
        resident: set[int] = set()
        filled = [0] * num_sets
        last = [0] * num_sets  # each set's most recently touched tag
        count = 0
        for tag in trace:
            index = tag % num_sets
            if tag not in resident:
                count += 1
                if filled[index] < ways:
                    filled[index] += 1
                else:
                    resident.discard(last[index])
                resident.add(tag)
            last[index] = tag
        return count
    return misses


def _drrip(num_sets: int, ways: int, m_bits: int = 2, psel_bits: int = 10,
           dueling_period: int = 32, long_every: int = 32
           ) -> Callable[[Sequence[int]], int]:
    if m_bits < 1:
        raise ValueError("RRIP needs at least one bit")
    distant = (1 << m_bits) - 1
    long_interval = distant - 1
    psel_max = (1 << psel_bits) - 1
    # Per set: 0 follows PSEL, 1 leads for SRRIP, 2 leads for BRRIP.
    leader = [1 if index % dueling_period == 0
              else 2 if index % dueling_period == dueling_period // 2
              else 0 for index in range(num_sets)]

    def misses(trace: Sequence[int]) -> int:
        sets: list[dict] = [dict() for _ in range(num_sets)]
        psel = psel_max // 2
        insertions = 0
        count = 0
        for tag in trace:
            index = tag % num_sets
            lines = sets[index]
            if tag in lines:
                lines[tag] = 0
                continue
            count += 1
            if len(lines) >= ways:
                # SRRIP ages every line until one is distant, then takes
                # the first distant line in insertion order.
                top = max(lines.values())
                if top < distant:
                    for resident in lines:
                        lines[resident] += distant - top
                for resident, rrpv in lines.items():
                    if rrpv >= distant:
                        break
                del lines[resident]
            kind = leader[index]
            if kind == 1:
                psel = min(psel_max, psel + 1)
                lines[tag] = long_interval
                continue
            if kind == 2:
                psel = max(0, psel - 1)
            elif psel < psel_max // 2:
                lines[tag] = long_interval
                continue
            insertions += 1
            lines[tag] = (long_interval if insertions % long_every == 0
                          else distant)
        return count
    return misses


_KERNELS = {"lru": _lru, "belady": _belady, "mru": _mru, "drrip": _drrip}

#: Policies the engine runs; the rest go through the policy objects.
ENGINE_POLICIES = frozenset(_KERNELS)


def miss_count(trace: Sequence[int], capacity_primitives: int,
               policy_name: str, associativity: int | None = None,
               **policy_kwargs) -> int:
    """Misses of one policy on a primitive-ID trace.

    ``belady`` accepts ``next_use`` (the trace's :func:`next_use_table`,
    to share it across geometries); ``drrip`` accepts
    :class:`~repro.caches.policies.rrip.DRRIPPolicy`'s keyword
    arguments.
    """
    try:
        kernel = _KERNELS[policy_name]
    except KeyError:
        raise ValueError(f"the miss engine has no {policy_name!r} kernel; "
                         f"choose from {sorted(_KERNELS)}") from None
    return kernel(*cache_geometry(capacity_primitives, associativity),
                  **policy_kwargs)(trace)
