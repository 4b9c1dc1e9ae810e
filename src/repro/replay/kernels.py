"""Replay kernels: run cache models over the IR, bit-identically.

Each kernel re-implements one live simulator path (``simulate_baseline``
/ ``simulate_tcor``, and the Tile Fetcher timing model
``tile_fetcher_throughput``) over the compiled trace's flat arrays, in
two passes.  The L1 pass runs the per-frame L1 models (the block
caches and the Attribute Cache) as closure-based state machines and
records every request they send the shared L2.  The L2 pass then
resolves the whole run's L2 stream at once (:func:`_l2_pass`).  The
encoding choices are dictated by bit-identity with the live path,
which tests/test_replay_equivalence.py gates for every figure workload
and policy:

- **Insertion-ordered per-set dicts** (not flat set*ways+way arrays)
  reproduce the live caches' victim tie-breaking exactly: the block
  L1's LRU line is the minimum insertion/hit stamp, and the Attribute
  Cache's in-set OPT victim is the first maximum in insertion order.
  A single **monotonic stamp** replaces the recency ``OrderedDict``s
  (hit == restamp, insert == new stamp).
- The Attribute Cache's **space victim** (the first maximum over every
  set, in set-then-insertion order) comes from a lazily pruned min-heap
  keyed ``(-effective OPT, set, insertion stamp)``, not a scan of every
  line; see :func:`_attr_cache`.
- The Attribute Buffer reduces to a **free-entry count**: chains are
  only ever allocated and freed whole, and victims are by construction
  unlocked, so the linked free list never affects the outcome.
- All addresses are pre-lowered to 64-byte **block tags**; the single
  tag namespace is valid because every cache in the hierarchy uses the
  Parameter Buffer's 64-byte block as its line size (checked, else
  :class:`ReplayUnsupportedError`).

Resolving the L2 after the L1s is exact for three reasons.  The
Parameter Buffer stream, and with it every L1 request, is fixed before
any cache sees it; no L1 model reads an L2 outcome; and the only state
outside the L2 that its decisions read, the dead-line horizon, moves
only at ``TileDone`` events, which the L1 pass records.  The L2 pass
merges the recorded requests with the frame's background stream
(:meth:`~repro.replay.ir.FrameIR.background`) and resolves it set by
set, because each set of a set-associative cache evolves on its own
accesses only.  A set that never holds more than ``ways`` lines
between PB teardowns never evicts, so numpy resolves it: a hit is a
repeat of a resident tag, and a teardown reads each line's last
region, whether it was written since its miss, and its last rank.
Only the sets that overflow go through the sequential
:func:`_l2_engine`, in stream order.  Access and miss counts come from
the miss flags in one numpy tally; the region dicts keep the order in
which the sequential run would first have touched each region.

The live simulator remains the reference oracle; the kernels carry no
authority of their own.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import repeat, starmap
from typing import TYPE_CHECKING

import numpy as np

from repro.caches.hierarchy import MemoryCounters
from repro.caches.stats import CacheStats
from repro.config import DEFAULT_GPU, GPUConfig, TCORConfig
from repro.constants import NO_NEXT_USE_RANK
from repro.pbuffer.pmd import NO_NEXT_TILE
from repro.tcor.attribute_cache import AttributeCacheStats
from repro.tcor.system import SystemResult
from repro.workloads.trace import Region

from repro.replay.ir import (
    BUILD_PMD_WRITE,
    FETCH_ATTR_READ,
    FETCH_PMD_READ,
    CompiledTrace,
    narrow_tags,
    run_indices,
)

if TYPE_CHECKING:
    from repro.timing.tiling_timing import ThroughputResult

_FB = int(Region.FRAMEBUFFER)


class ReplayUnsupportedError(Exception):
    """The configuration steps outside what the kernels model; callers
    fall back to the live simulator."""


class ReplayOutcome:
    """A kernel's full output: the ``SystemResult`` plus the
    reconstructed ``*Stats`` objects the observability layer registers
    (byte-identical names and values to the live path)."""

    __slots__ = ("result", "l2_name", "l2_stats", "memory", "frame_stats",
                 "counters")

    def __init__(self, result, l2_name, l2_stats, memory, frame_stats,
                 counters) -> None:
        self.result = result
        self.l2_name = l2_name
        self.l2_stats = l2_stats
        self.memory = memory
        self.frame_stats = frame_stats
        self.counters = counters


def _check_supported(header, gpu: GPUConfig,
                     l1_line_bytes: tuple[int, ...]) -> None:
    block = header.block_bytes
    if gpu.l2_cache.line_bytes != block:
        raise ReplayUnsupportedError("L2 line size != PB block size")
    for line_bytes in l1_line_bytes:
        if line_bytes != block:
            raise ReplayUnsupportedError("L1 line size != PB block size")
    if header.attribute_stride != block:
        raise ReplayUnsupportedError(
            "attribute stride != PB block size (tags not consecutive)")
    if gpu.screen.num_tiles != header.num_tiles:
        raise ReplayUnsupportedError("screen geometry differs from trace")


def _region_stats(by: dict) -> dict:
    return {Region(region): {"reads": entry[0], "writes": entry[1],
                             "misses": entry[2]}
            for region, entry in by.items()}


# ----------------------------------------------------------------------
# Shared L2
# ----------------------------------------------------------------------
def _l2_engine(num_sets: int, ways: int, dead_policy: bool,
               horizons=()):
    """State machine for SharedL2 / TcorSharedL2, fed one access at a
    time: the L2 of the sets that evict.

    Returns ``(access, writeback_pb, evictions, written, firsts)``.
    ``access(tag, is_write, region, rank, at)`` returns whether the
    access missed.  ``rank`` is ``_NO_RANK`` for a request without one;
    ``at`` is the access's position in the run's stream, increasing,
    and ``horizons[at]``, the rank of the last finished tile when it
    was sent, is what the dead-line policy reads a line's rank against
    (looked up only when it picks a victim among PB lines).
    ``writeback_pb(horizon)`` is the end-of-frame PB teardown.
    ``evictions`` counts [writebacks, clean_evictions, dead_evictions,
    dead_writebacks_avoided] and ``written`` the memory writes per
    region.  ``firsts`` logs each region's first memory write as
    ``(region, at, set)``: ``at`` of the evicting access and ``set``
    -1, or ``at`` -1 and the set a teardown wrote back.  Access and
    miss counts follow from the requests and the miss flags, so the
    engine keeps none.

    Each set is a dict in recency order (a hit moves its line to the
    end), so the LRU victim is the first line, and the dead-line
    victim, the least ``(priority, recency)`` pair, is the first line
    of the least priority; in a set without PB lines (``pb`` counts
    them under that policy) that is the LRU line too.  A line is
    ``[dirty, region, rank, inserted at]``; the teardown visits a
    set's lines in insertion order, as the live cache does.
    """
    sets: list = [dict() for _ in range(num_sets)]
    pb = [0] * num_sets
    evictions = [0, 0, 0, 0]
    written: dict = {}
    firsts: list = []

    def write_back(region, at, where) -> None:
        if region in written:
            written[region] += 1
        else:
            written[region] = 1
            firsts.append((region, at, where))

    def access(tag, is_write, region, rank, at) -> bool:
        index = tag % num_sets
        lines = sets[index]
        line = lines.pop(tag, None)
        if line is not None:
            lines[tag] = line
            if is_write:
                line[0] = 1
            if region != line[1]:
                if dead_policy and (line[1] <= 1) != (region <= 1):
                    pb[index] += 1 if region <= 1 else -1
                line[1] = region
            if rank >= 0:
                line[2] = rank
            return False
        if len(lines) >= ways:
            if not dead_policy or not pb[index]:
                victim_tag = next(iter(lines))
            else:
                horizon = horizons[at]
                # Priority 0: a dead PB line; 1: not PB; 2: a live PB line.
                other = live = None
                for victim_tag, resident in lines.items():
                    if resident[1] <= 1:
                        if 0 <= resident[2] <= horizon:
                            break
                        if live is None:
                            live = victim_tag
                    elif other is None:
                        other = victim_tag
                else:
                    victim_tag = live if other is None else other
            victim = lines.pop(victim_tag)
            evictions[0 if victim[0] else 1] += 1
            if dead_policy and victim[1] <= 1:
                pb[index] -= 1
                if 0 <= victim[2] <= horizon:
                    evictions[2] += 1
                    if victim[0]:
                        evictions[3] += 1
                elif victim[0]:
                    write_back(victim[1], at, -1)
            elif victim[0]:
                write_back(victim[1], at, -1)
        if dead_policy and region <= 1:
            pb[index] += 1
        lines[tag] = [1 if is_write else 0, region, rank, at]
        return True

    def writeback_pb(horizon) -> None:
        """End-of-frame PB teardown (``_writeback_pb_lines``)."""
        for set_index, lines in enumerate(sets):
            if not lines:
                continue
            pb[set_index] = 0
            pb_tags = sorted((line[3], tag) for tag, line in lines.items()
                             if line[1] <= 1)
            for _, tag in pb_tags:
                line = lines.pop(tag)
                if not line[0]:
                    evictions[1] += 1
                    continue
                evictions[0] += 1
                if dead_policy and 0 <= line[2] <= horizon:
                    evictions[3] += 1
                else:
                    write_back(line[1], -1, set_index)

    return access, writeback_pb, evictions, written, firsts


# A request without a last-use rank (``None`` in the live model), as
# the kernels carry it.  Ranks are tile ranks, never negative, so a
# rank is dead when ``0 <= rank <= horizon``.
_NO_RANK = -1


def _l2_pass(num_sets: int, ways: int, dead_policy: bool, tag, write,
             region, rank, horizon, ends, end_horizons, fb=None):
    """Resolve one run's whole L2 request stream, set by set.

    ``tag``/``write``/``region``/``rank``/``horizon`` are the stream's
    arrays in send order (``horizon`` is read only under the dead-line
    policy).  A PB teardown follows the first ``ends[f]`` accesses,
    under horizon ``end_horizons[f]``.  ``fb`` is ``(count, frame,
    position)`` for the framebuffer writes that go straight to memory,
    the first of them sent before stream ``position`` of frame
    ``frame``.

    Each set evolves on its own accesses only, so the sets are resolved
    apart.  A set that never holds more than ``ways`` lines between
    teardowns never evicts: numpy resolves it (:func:`_quiet_sets`).
    Every other set goes through :func:`_l2_engine`, in stream order
    (:func:`_spilling_sets`).  Returns ``(stats, memory, n, mem,
    missed)``: the live L2's ``CacheStats`` and ``MemoryCounters``
    (region dicts in first-use order), their counters as lists (``n``:
    reads, writes, read misses, write misses, writebacks, clean
    evictions, dead evictions, dead writebacks avoided; ``mem``: reads,
    writes) and each access's miss flag.
    """
    size = len(tag)
    ends = np.asarray(ends, dtype=np.int64)
    frame = np.repeat(np.arange(len(ends) + 1, dtype=np.int32),
                      np.diff(ends, prepend=0, append=size))
    n = [0] * 8
    mem_writes: dict = {}
    # Each region's first memory event, keyed (frame, stream position,
    # kind, set, order within the set), the kind being 0 for a
    # framebuffer write, 1 a fetch, 2 an eviction's write-back and 3 a
    # teardown's: the order a sequential run would have added the
    # region to the memory counters.
    first_key: dict = {}
    missed, overflows = _quiet_sets(num_sets, ways, dead_policy, tag,
                                    write, region, rank, frame, ends,
                                    end_horizons, n, mem_writes, first_key)
    spill = np.flatnonzero(overflows[tag % num_sets]).astype(np.int32)
    if len(spill):
        _spilling_sets(num_sets, ways, dead_policy, tag, write, region,
                       rank, horizon, frame, ends, end_horizons, spill,
                       missed, n, mem_writes, first_key)

    # Counts per region: [read hits, read misses, write hits, write misses].
    span = int(region.max()) + 1 if size else 0
    by_kind = np.bincount(region * np.int8(4) + write.view(np.int8) * 2
                          + missed.view(np.int8),
                          minlength=4 * span).reshape(span, 4).tolist()
    read_miss = missed & ~write
    first_use: dict = {}
    for region_id, (read_hits, fetches, write_hits, write_misses) in \
            enumerate(by_kind):
        if read_hits + fetches + write_hits + write_misses:
            matches = region == region_id
            first_use[region_id] = int(matches.argmax())
        if fetches:
            fetched_at = int((matches & read_miss).argmax())
            _note(mem_writes, first_key, region_id,
                  (int(frame[fetched_at]), fetched_at, 1, 0, 0), 0)
        n[0] += read_hits + fetches
        n[1] += write_hits + write_misses
        n[2] += fetches
        n[3] += write_misses
    stats = CacheStats(
        reads=n[0], writes=n[1], read_misses=n[2], write_misses=n[3],
        writebacks=n[4], clean_evictions=n[5], dead_evictions=n[6],
        dead_writebacks_avoided=n[7],
        by_region={Region(region_id): {
            "reads": by_kind[region_id][0] + by_kind[region_id][1],
            "writes": by_kind[region_id][2] + by_kind[region_id][3],
            "misses": by_kind[region_id][1] + by_kind[region_id][3]}
            for region_id in sorted(first_use, key=first_use.get)},
    )
    if fb is not None and fb[0]:
        fb_writes, fb_frame, fb_position = fb
        _note(mem_writes, first_key, _FB, (fb_frame, fb_position, 0, 0, 0),
              fb_writes)
    mem = [n[2], sum(mem_writes.values())]
    memory = MemoryCounters(
        reads=mem[0], writes=mem[1],
        by_region={Region(region_id): {
            "reads": by_kind[region_id][1] if region_id < span else 0,
            "writes": mem_writes.get(region_id, 0)}
            for region_id in sorted(first_key, key=first_key.get)},
    )
    return stats, memory, n, mem, missed


def _note(mem_writes: dict, first_key: dict, region_id: int, key: tuple,
          writes: int) -> None:
    """``writes`` memory writes of a region (maybe 0, for a fetch), the
    first of them at ``key``."""
    if writes:
        mem_writes[region_id] = mem_writes.get(region_id, 0) + writes
    if region_id not in first_key or key < first_key[region_id]:
        first_key[region_id] = key


def _quiet_sets(num_sets, ways, dead_policy, tag, write, region, rank,
                frame, ends, end_horizons, n, mem_writes, first_key):
    """The sets that never evict: :func:`_l2_pass`'s numpy half.

    Returns ``(missed, overflows)``: the miss flags, exact in every set
    that does not overflow, and which sets overflow.  Adds those sets'
    teardowns to the counters.
    """
    size = len(tag)
    torn_frames = len(ends)
    # Each tag's accesses together, in stream order (a unique key makes
    # the fast sort stable).  Without evictions a line lives from a
    # miss until a teardown finds it in a PB region, so it misses on
    # its tag's first access and on its first after such a teardown.
    if size and int(tag.max()) < (1 << 62) // size:
        key = tag.astype(np.int64)
        key *= size
        key += np.arange(size)
        order = np.argsort(key)
        del key
    else:
        order = np.argsort(tag, kind="stable")
    sorted_tag = tag[order]
    sorted_frame = frame[order]
    sorted_region = region[order]
    born = np.ones(size, dtype=bool)
    born[1:] = ((sorted_tag[1:] != sorted_tag[:-1])
                | ((sorted_frame[:-1] < sorted_frame[1:])
                   & (sorted_region[:-1] <= 1)))
    first = np.flatnonzero(born)
    last = np.empty_like(first)
    last[:-1] = first[1:] - 1
    last[-1:] = size - 1
    life_set = sorted_tag[first] % num_sets
    last_region = sorted_region[last]
    last_frame = sorted_frame[last]
    del sorted_tag, sorted_frame, sorted_region
    torn = (last_region <= 1) & (last_frame < torn_frames)
    # Lines resident at each frame's end, had no set evicted.
    width = torn_frames + 2
    cells = num_sets * width
    change = (np.bincount(life_set * width + frame[order[first]],
                          minlength=cells)
              - np.bincount(life_set * width + 1
                            + np.where(torn, last_frame, torn_frames),
                            minlength=cells))
    overflows = (change.reshape(num_sets, width).cumsum(axis=1).max(axis=1)
                 > ways)
    missed = np.empty(size, dtype=bool)
    missed[order] = born
    del born

    # Teardowns of those sets, from each torn-down line's accesses
    # (stream order, from its miss on).
    gone = np.flatnonzero(torn & ~overflows[life_set])
    if not len(gone):
        return missed, overflows
    length = last[gone] - first[gone] + 1
    offset = np.cumsum(length) - length
    accesses = order[run_indices(first[gone], length)]
    dirty = np.logical_or.reduceat(write[accesses], offset)
    ranks = rank[accesses]
    ranked = np.where(ranks >= 0, np.arange(len(ranks)), -1)
    np.maximum.accumulate(ranked, out=ranked)
    at = ranked[offset + length - 1]
    life_rank = np.where(at >= offset, ranks[at], _NO_RANK)
    gone_frame = last_frame[gone]
    if dead_policy:
        dead = dirty & (life_rank >= 0) & (life_rank <= np.asarray(
            end_horizons, dtype=np.int64)[gone_frame])
    else:
        dead = np.zeros(len(gone), dtype=bool)
    kept = int(dirty.sum())
    n[4] += kept
    n[5] += len(dirty) - kept
    n[7] += int(dead.sum())
    back = dirty & ~dead
    back_frame = gone_frame[back]
    back_set = life_set[gone][back]
    back_born = accesses[offset[back]]
    back_region = last_region[gone][back]
    counts = np.bincount(back_region)
    sequence = np.lexsort((back_born, back_set, back_frame))
    regions_seen, at = np.unique(back_region[sequence], return_index=True)
    for region_id, index in zip(regions_seen.tolist(),
                                sequence[at].tolist()):
        index_frame = int(back_frame[index])
        _note(mem_writes, first_key, region_id,
              (index_frame, int(ends[index_frame]), 3,
               int(back_set[index]), int(back_born[index])),
              int(counts[region_id]))
    return missed, overflows


# Accesses the engine takes per batch: bounds the Python lists it is fed.
_FEED_BATCH = 4096


def _spilling_sets(num_sets, ways, dead_policy, tag, write, region, rank,
                   horizon, frame, ends, end_horizons, spill, missed, n,
                   mem_writes, first_key) -> None:
    """The sets that overflow: :func:`_l2_pass`'s sequential half.

    Feeds the accesses at positions ``spill`` to :func:`_l2_engine` in
    stream order, tearing down at each frame's end, and writes their
    miss flags into ``missed``.
    """
    access, writeback_pb, evictions, written, firsts = _l2_engine(
        num_sets, ways, dead_policy, horizon)
    torn_log: list = []  # len(firsts) after each teardown
    start = 0
    cuts = np.searchsorted(spill, ends).tolist()
    for index, cut in enumerate(cuts + [len(spill)]):
        for lo in range(start, cut, _FEED_BATCH):
            at = spill[lo:min(lo + _FEED_BATCH, cut)]
            missed[at] = list(starmap(access, zip(
                tag[at].tolist(), write[at].tolist(), region[at].tolist(),
                # Without the dead-line policy no rank is ever read.
                rank[at].tolist() if dead_policy else repeat(_NO_RANK),
                at.tolist())))
        start = cut
        if index < len(cuts):
            writeback_pb(end_horizons[index])
            torn_log.append(len(firsts))
    for index, count in enumerate(evictions, 4):
        n[index] += count
    for seq, (region_id, at, where) in enumerate(firsts):
        if where < 0:
            key = (int(frame[at]), at, 2, 0, 0)
        else:
            index = bisect_right(torn_log, seq)
            key = (index, int(ends[index]), 3, where, seq)
        _note(mem_writes, first_key, region_id, key, written[region_id])


def _requests(rq: array):
    """Expand the L1s' recorded L2 requests.

    ``rq`` is a flat ``array("q")``: one ``(first tag, count, write,
    region, rank)`` run of consecutive tags per request.  Returns ``(tag, write,
    region, rank, run_at)`` with ``run_at[k]`` the requests before run
    ``k``.
    """
    runs = np.frombuffer(rq, dtype=np.int64).reshape(-1, 5)
    lengths = runs[:, 1]
    run_at = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum(lengths, out=run_at[1:])
    return (narrow_tags(run_indices(runs[:, 0], lengths)),
            np.repeat(runs[:, 2] != 0, lengths),
            np.repeat(runs[:, 3].astype(np.int8), lengths),
            np.repeat(runs[:, 4].astype(np.int32), lengths), run_at)


def _l2_stream(trace: CompiledTrace, requests, frames: list,
               prims: bool, background: bool, teardown: bool):
    """Merge the L1s' requests with the background stream, per frame.

    ``frames`` holds ``(frame, start, stop, marks, skip, first_fb)`` per
    frame: the ``rq`` offsets bounding its runs, ``len(rq)`` at each
    background segment (see :meth:`FrameIR.background`), the skip mask
    and the index of the first ``TileDone`` that writes the framebuffer
    (-1 if none).  A teardown ends every frame when ``teardown`` is
    set.  Returns ``(tag, write, region, rank, horizon, ends,
    end_horizons, at, fb_at)``: :func:`_l2_pass`'s arguments, each
    request's stream position, and ``(frame, position)`` of the first
    framebuffer write (or ``None``).
    """
    req_tag, req_write, req_region, req_rank, run_at = requests
    at = np.empty(int(run_at[-1]), dtype=np.int64)
    parts: list = []
    ends: list = []
    end_horizons: list = []
    fb_at = None
    offset = 0
    for index, (frame, start, stop, marks, skip, first_fb) in \
            enumerate(frames):
        lo = int(run_at[start // 5])
        hi = int(run_at[stop // 5])
        mark = run_at[np.asarray(marks, dtype=np.int64) // 5]
        requests_in = np.arange(lo, hi)
        dones = mark[len(frame.bw_pid):]
        horizon = np.array([-1] + frame.td_rank, dtype=np.int32)[
            np.searchsorted(dones, requests_in, side="right")]
        if background:
            bg = frame.background(trace, skip, prims)
            req_at = (requests_in - lo) + bg.seg_start[
                np.searchsorted(mark, requests_in, side="right")]
            bg_at = np.arange(len(bg.tag)) + (mark[bg.seg_of] - lo)
            size = hi - lo + len(bg.tag)
            part = []
            for req_values, bg_values in (
                    (req_tag[lo:hi], bg.tag), (req_write[lo:hi], bg.write),
                    (req_region[lo:hi], bg.region),
                    (req_rank[lo:hi], None), (horizon, bg.horizon)):
                if bg_values is None:  # background carries no rank
                    merged = np.full(size, _NO_RANK, dtype=np.int32)
                else:
                    merged = np.empty(size, dtype=np.result_type(
                        req_values, bg_values))
                    merged[bg_at] = bg_values
                merged[req_at] = req_values
                part.append(merged)
            if first_fb >= 0 and fb_at is None:
                fb_at = (index, offset + int(
                    mark[len(frame.bw_pid) + first_fb] - lo
                    + bg.seg_start[len(frame.bw_pid) + first_fb + 1]))
        else:
            req_at = requests_in - lo
            size = hi - lo
            part = [req_tag[lo:hi], req_write[lo:hi], req_region[lo:hi],
                    req_rank[lo:hi], horizon]
        at[lo:hi] = req_at + offset
        offset += size
        parts.append(part)
        if teardown:
            ends.append(offset)
            end_horizons.append(frame.td_rank[-1] if frame.td_rank else -1)
    if len(parts) == 1:
        stream = parts[0]
    else:
        stream = [np.concatenate(field) for field in zip(*parts)]
    return (*stream, ends, end_horizons, at, fb_at)


def _resolve_l2(trace: CompiledTrace, l2_config, dead_policy: bool,
                rq: array, frames: list, background: bool, fb_count: int):
    """One traffic run's L2: merge, then :func:`_l2_pass`."""
    *stream, ends, end_horizons, _, fb_at = _l2_stream(
        trace, _requests(rq), frames, prims=True, background=background,
        teardown=True)
    fb = None if fb_at is None else (fb_count, *fb_at)
    return _l2_pass(l2_config.num_sets, l2_config.associativity,
                    dead_policy, *stream, ends, end_horizons, fb)[:4]


# ----------------------------------------------------------------------
# Block-granularity L1s (baseline Tile Cache / Primitive List Cache)
# ----------------------------------------------------------------------
def _block_l1(num_sets: int, ways: int, send, pbc: list, n: list,
              by: dict, pl: bool):
    """One frame's LRU block cache in front of the L2.  ``send`` records
    each L2 request as a run (see :func:`_requests`).

    ``pl`` selects Primitive List Cache semantics (all requests carry
    the literal PB-Lists region) over the baseline Tile Cache's
    evicted-region fallbacks (``evicted.region or request_region`` on
    eviction, ``or PB_ATTRIBUTES`` on flush — note PB_LISTS == 0 is
    falsy, exactly as in the live path).
    """
    sets: list = [dict() for _ in range(num_sets)]
    written: set = set()
    tick = [0]

    def access(tag, is_write, region, rank) -> None:
        lines = sets[tag % num_sets]
        line = lines.get(tag)
        entry = by.get(region)
        if entry is None:
            entry = by[region] = [0, 0, 0]
        if line is not None:
            if is_write:
                n[1] += 1
                entry[1] += 1
                line[0] = 1
                written.add(tag)
            else:
                n[0] += 1
                entry[0] += 1
            line[1] = region
            if rank is not None:
                line[2] = rank
            line[3] = tick[0]
            tick[0] += 1
            return
        if is_write:
            n[1] += 1
            n[3] += 1
            entry[1] += 1
        else:
            n[0] += 1
            n[2] += 1
            entry[0] += 1
        entry[2] += 1
        victim = None
        if len(lines) >= ways:
            victim_tag = None
            victim_stamp = None
            for resident_tag, resident in lines.items():
                if victim_stamp is None or resident[3] < victim_stamp:
                    victim_stamp = resident[3]
                    victim_tag = resident_tag
            victim = lines.pop(victim_tag)
            if victim[0]:
                n[4] += 1
            else:
                n[5] += 1
        lines[tag] = [1 if is_write else 0, region, rank, tick[0]]
        tick[0] += 1
        # Write-validate: a miss fetches from the L2 unless it is a
        # first-touch write to a fresh buffer block.
        if not is_write or tag in written:
            send((tag, 1, 0, region, rank))
            pbc[0] += 1
        if is_write:
            written.add(tag)
        if victim is not None and victim[0]:
            send((victim_tag, 1, 1, 0 if pl else (victim[1] or region),
                  victim[2]))
            pbc[1] += 1

    def flush() -> None:
        for lines in sets:
            for tag in list(lines):
                line = lines.pop(tag)
                if line[0]:
                    n[4] += 1
                    send((tag, 1, 1, 0 if pl else (line[1] or 1), line[2]))
                    pbc[1] += 1
                else:
                    n[5] += 1

    return access, flush


# ----------------------------------------------------------------------
# TCOR Attribute Cache
# ----------------------------------------------------------------------
def _attr_cache(num_sets: int, ways: int, ab_entries: int, window: int,
                write_bypass: bool, set_of: list, base_tags: list,
                counts: list, send, pbc: list, an: list):
    """One frame's Primitive Buffer + Attribute Buffer with OPT
    replacement.  Line layout: [nattr, opt, last_rank, dirty, locks,
    stamp]; ``stamp`` numbers insertions, so within a set it follows
    the dict's residency order.

    The space victim is the unlocked line with the greatest effective
    OPT Number, the first in set-then-insertion order among equals (the
    live scan's tie-break).  ``victims`` indexes it as a min-heap of
    ``(-effective OPT, set, stamp, pid)`` entries, maintained lazily.
    It is built from the unlocked lines at the frame's first space
    eviction.  From then on an entry is pushed whenever a line becomes
    unlocked (a write inserts it unlocked, or its last lock is
    released), and an entry is dropped once it reaches the top stale:
    the line was evicted, re-inserted under a new stamp, locked again or
    given a new OPT Number.  Only a read hit changes a line's OPT
    Number, and it locks the line, so once the heap is built every
    unlocked line has an entry carrying its current key.

    Counter layout ``an``: [reads, read_misses, writes, write_bypasses,
    evictions, dirty_evictions, forced_unlocks, space_evictions].
    """
    sets: list = [dict() for _ in range(num_sets)]
    free = [ab_entries]
    inflight: deque = deque()
    victims: list = []
    indexed = [False]
    tick = [0]

    def effective_opt(line) -> int:
        opt = line[1]
        return NO_NEXT_USE_RANK if opt == NO_NEXT_TILE else opt

    def consume_oldest() -> None:
        pid = inflight.popleft()
        set_index = set_of[pid]
        line = sets[set_index].get(pid)
        if line is not None and line[4] > 0:
            line[4] -= 1
            if not line[4] and indexed[0]:
                heappush(victims,
                         (-effective_opt(line), set_index, line[5], pid))

    def lock(line, pid) -> None:
        line[4] += 1
        inflight.append(pid)
        while len(inflight) > window:
            consume_oldest()

    def emit_writes(pid, rank) -> None:
        count = counts[pid]
        send((base_tags[pid], count, 1, 1, rank))
        pbc[1] += count

    def evict(pid) -> None:
        line = sets[set_of[pid]].pop(pid)
        free[0] += line[0]
        an[4] += 1
        if line[3]:
            an[5] += 1
            emit_writes(pid, line[2])

    def victim_in_set(set_index):
        best_pid = None
        best_opt = -1
        for pid, line in sets[set_index].items():
            if line[4]:
                continue
            opt = effective_opt(line)
            if best_pid is None or opt > best_opt:
                best_opt = opt
                best_pid = pid
        return best_pid

    def global_victim():
        if not indexed[0]:
            # Indexed from the frame's first space eviction on, so a
            # frame that never runs out of space pushes nothing.
            indexed[0] = True
            victims.extend((-effective_opt(line), set_index, line[5], pid)
                           for set_index, lines in enumerate(sets)
                           for pid, line in lines.items() if not line[4])
            heapify(victims)
        while victims:
            neg_opt, set_index, stamp, pid = victims[0]
            line = sets[set_index].get(pid)
            if (line is not None and line[5] == stamp and not line[4]
                    and effective_opt(line) == -neg_opt):
                return pid
            heappop(victims)
        return None

    def read(pid, nattr, opt, last) -> bool:
        an[0] += 1
        set_index = set_of[pid]
        lines = sets[set_index]
        line = lines.get(pid)
        if line is not None:
            line[1] = opt
            lock(line, pid)
            return True
        an[1] += 1
        while len(lines) >= ways:
            victim = victim_in_set(set_index)
            if victim is None:
                an[6] += 1
                consume_oldest()
                continue
            evict(victim)
        while nattr > free[0]:
            victim = global_victim()
            if victim is None:
                an[6] += 1
                consume_oldest()
                continue
            an[7] += 1
            evict(victim)
        free[0] -= nattr
        line = [nattr, opt, last, 0, 0, tick[0]]
        tick[0] += 1
        lines[pid] = line
        lock(line, pid)
        send((base_tags[pid], nattr, 0, 1, last))
        pbc[0] += nattr
        return False

    def write(pid, nattr, opt, last) -> None:
        an[2] += 1
        set_index = set_of[pid]
        lines = sets[set_index]
        if len(lines) >= ways:
            victim = victim_in_set(set_index)
            if victim is None:
                an[3] += 1
                emit_writes(pid, last)
                return
            if write_bypass:
                if effective_opt(lines[victim]) > opt:
                    evict(victim)
                else:
                    an[3] += 1
                    emit_writes(pid, last)
                    return
            else:
                evict(victim)
        while nattr > free[0]:
            victim = global_victim()
            if victim is None:
                an[3] += 1
                emit_writes(pid, last)
                return
            if (write_bypass
                    and effective_opt(sets[set_of[victim]][victim]) <= opt):
                an[3] += 1
                emit_writes(pid, last)
                return
            an[7] += 1
            evict(victim)
        free[0] -= nattr
        line = lines[pid] = [nattr, opt, last, 1, 0, tick[0]]
        tick[0] += 1
        if indexed[0]:
            heappush(victims,
                     (-effective_opt(line), set_index, line[5], pid))

    def flush() -> None:
        while inflight:
            consume_oldest()
        for lines in sets:
            for pid in list(lines):
                evict(pid)

    return read, write, flush


# ----------------------------------------------------------------------
# System kernels
# ----------------------------------------------------------------------
def _frame_skip(frame, prev_sig, re_counters):
    """One frame's Rendering Elimination skip mask (replay side).

    Mirrors :meth:`RenderingElimination.begin_frame`: ``None`` on the
    first frame, else per-tile ``sig != 0 and sig == previous`` with
    one signature compare charged per tile.  Returns ``(skip,
    this_frame_sig)`` so the caller can thread ``prev_sig``.
    """
    sig = frame.tile_sig
    if prev_sig is None:
        return None, sig
    re_counters[0] += len(sig)
    return [s != 0 and s == p for s, p in zip(sig, prev_sig)], sig


def _finalize_re(result: SystemResult, frame_stats: list,
                 re_counters: list) -> None:
    """Mirror of the live path's RE finalization: copy the signature
    unit's counters into the result and reconstruct the ``REStats`` the
    observability layer registers under ``live.re``."""
    from repro.anim.elimination import REStats

    compares, total, skipped = re_counters
    frame_stats.append(("live.re", REStats(
        signature_compares=compares, tiles_total=total,
        tiles_skipped=skipped, tiles_rendered=total - skipped)))
    result.tiles_total = total
    result.tiles_skipped = skipped
    result.signature_compares = compares
    result.structure_accesses["signature_unit"] = compares


def replay_baseline(trace: CompiledTrace,
                    gpu: GPUConfig | None = None,
                    tile_cache_bytes: int | None = None,
                    include_background: bool = True,
                    rendering_elimination: bool = False) -> ReplayOutcome:
    """Replay of :func:`repro.tcor.system.simulate_baseline`."""
    gpu = gpu or DEFAULT_GPU
    if tile_cache_bytes is not None:
        gpu = gpu.with_tile_cache_size(tile_cache_bytes)
    header = trace.header
    _check_supported(header, gpu, (gpu.tile_cache.line_bytes,))

    rq = array("q")
    send = rq.extend
    frames: list = []
    fb_tiles = 0
    pbc = [0, 0]
    result = SystemResult(label="baseline", alias=header.alias)
    tile_config = gpu.tile_cache
    tile_cache_accesses = 0
    frame_stats: list = []
    attr_reads = 0

    re_counters = [0, 0, 0]  # [compares, tiles_total, tiles_skipped]
    prev_sig = None

    for frame in trace.frames:
        skip = None
        if rendering_elimination:
            skip, prev_sig = _frame_skip(frame, prev_sig, re_counters)
        start = len(rq)
        marks = array("q")
        mark = marks.append
        first_fb = -1
        tn = [0] * 6
        tby: dict = {}
        t_access, t_flush = _block_l1(tile_config.num_sets,
                                      tile_config.associativity,
                                      send, pbc, tn, tby, pl=False)
        build_tags, build_ranks, fetch_tags, fetch_ranks = frame.pmd_views(
            header, interleaved=False)
        base_tags = frame.attr_tag_base(header)
        bw_pid = frame.bw_pid
        bw_nattr = frame.bw_nattr
        bw_last = frame.bw_last
        pmd_index = attr_index = 0
        for kind in frame.build_kind:
            if kind == BUILD_PMD_WRITE:
                t_access(build_tags[pmd_index], True, 0,
                         build_ranks[pmd_index])
                pmd_index += 1
            else:
                mark(len(rq))
                last = bw_last[attr_index]
                base = base_tags[bw_pid[attr_index]]
                for tag in range(base, base + bw_nattr[attr_index]):
                    t_access(tag, True, 1, last)
                attr_index += 1
        fr_pid = frame.fr_pid
        fr_nattr = frame.fr_nattr
        fr_last = frame.fr_last
        fp_tile = frame.fp_tile
        td_tile = frame.td_tile
        td_fb = frame.td_fb
        pmd_index = attr_index = done_index = 0
        skip_tile = False
        for kind in frame.fetch_kind:
            if kind == FETCH_PMD_READ:
                skip_tile = skip is not None and skip[fp_tile[pmd_index]]
                if not skip_tile:
                    t_access(fetch_tags[pmd_index], False, 0,
                             fetch_ranks[pmd_index])
                pmd_index += 1
            elif kind == FETCH_ATTR_READ:
                if skip_tile:
                    attr_index += 1
                    continue
                attr_reads += 1
                pid = fr_pid[attr_index]
                last = fr_last[attr_index]
                base = base_tags[pid]
                for tag in range(base, base + fr_nattr[attr_index]):
                    t_access(tag, False, 1, last)
                attr_index += 1
            else:
                skipped = skip is not None and skip[td_tile[done_index]]
                skip_tile = False
                if rendering_elimination:
                    re_counters[1] += 1
                    re_counters[2] += skipped
                mark(len(rq))
                if include_background and not skipped and td_fb[done_index]:
                    fb_tiles += 1
                    if first_fb < 0:
                        first_fb = done_index
                done_index += 1
        t_flush()
        frames.append((frame, start, len(rq), marks, skip, first_fb))
        tile_cache_accesses += tn[0] + tn[1]
        frame_stats.append(("live.tile", CacheStats(
            reads=tn[0], writes=tn[1], read_misses=tn[2],
            write_misses=tn[3], writebacks=tn[4], clean_evictions=tn[5],
            by_region=_region_stats(tby),
        )))

    result.attr_reads = attr_reads
    l2_config = gpu.l2_cache
    l2_stats, memory, l2n, mem = _resolve_l2(
        trace, l2_config, False, rq, frames, include_background,
        header.fb_writes_per_tile * fb_tiles)
    result.structure_accesses = {
        "tile_cache": tile_cache_accesses,
        "l2": l2n[0] + l2n[1],
        "dram": mem[0] + mem[1],
    }
    if include_background:
        result.structure_accesses.update(header.l1_estimates)
    if rendering_elimination:
        _finalize_re(result, frame_stats, re_counters)
    _finalize(result, pbc, l2n, mem, memory)
    return ReplayOutcome(result, l2_config.name, l2_stats, memory,
                         frame_stats,
                         {"pb_l2_reads": pbc[0], "pb_l2_writes": pbc[1]})


def replay_tcor(trace: CompiledTrace,
                gpu: GPUConfig | None = None,
                tcor: TCORConfig | None = None,
                total_tile_cache_bytes: int | None = None,
                l2_enhancements: bool = True,
                interleaved_lists: bool = True,
                include_background: bool = True,
                rendering_elimination: bool = False) -> ReplayOutcome:
    """Replay of :func:`repro.tcor.system.simulate_tcor`."""
    gpu = gpu or DEFAULT_GPU
    if tcor is None:
        tcor = (TCORConfig.for_total_size(total_tile_cache_bytes)
                if total_tile_cache_bytes is not None else TCORConfig())
    header = trace.header
    pl_config = tcor.primitive_list_cache
    _check_supported(header, gpu, (pl_config.line_bytes,))

    rq = array("q")
    send = rq.extend
    frames: list = []
    fb_tiles = 0
    pbc = [0, 0]
    label = "tcor" if l2_enhancements else "tcor_no_l2"
    result = SystemResult(label=label, alias=header.alias)
    pb_ways = tcor.primitive_buffer_associativity
    pb_sets = max(1, tcor.primitive_buffer_entries // pb_ways)
    window = gpu.tiling.output_queue_entries

    pl_accesses = 0
    pb_buffer_ops = 0
    attr_entries_moved = 0
    attr_reads = 0
    attr_read_hits = 0
    write_bypasses = 0
    frame_stats: list = []

    re_counters = [0, 0, 0]  # [compares, tiles_total, tiles_skipped]
    prev_sig = None

    for frame in trace.frames:
        skip = None
        if rendering_elimination:
            skip, prev_sig = _frame_skip(frame, prev_sig, re_counters)
        start = len(rq)
        marks = array("q")
        mark = marks.append
        first_fb = -1
        pn = [0] * 6
        pby: dict = {}
        pl_access, pl_flush = _block_l1(pl_config.num_sets,
                                        pl_config.associativity,
                                        send, pbc, pn, pby, pl=True)
        an = [0] * 8
        set_of = frame.attr_sets(pb_sets, tcor.use_xor_indexing)
        base_tags = frame.attr_tag_base(header)
        attr_read, attr_write, attr_flush = _attr_cache(
            pb_sets, pb_ways, tcor.attribute_buffer_entries, window,
            tcor.write_bypass, set_of, base_tags, frame.attr_count,
            send, pbc, an)
        build_tags, build_ranks, fetch_tags, fetch_ranks = frame.pmd_views(
            header, interleaved=interleaved_lists)
        bw_pid = frame.bw_pid
        bw_nattr = frame.bw_nattr
        bw_opt = frame.bw_opt
        bw_last = frame.bw_last
        pmd_index = attr_index = 0
        for kind in frame.build_kind:
            if kind == BUILD_PMD_WRITE:
                pl_access(build_tags[pmd_index], True, 0,
                          build_ranks[pmd_index])
                pmd_index += 1
            else:
                mark(len(rq))
                nattr = bw_nattr[attr_index]
                attr_write(bw_pid[attr_index], nattr, bw_opt[attr_index],
                           bw_last[attr_index])
                pb_buffer_ops += 1
                attr_entries_moved += nattr
                attr_index += 1
        fr_pid = frame.fr_pid
        fr_nattr = frame.fr_nattr
        fr_opt = frame.fr_opt
        fr_last = frame.fr_last
        fp_tile = frame.fp_tile
        td_tile = frame.td_tile
        td_fb = frame.td_fb
        pmd_index = attr_index = done_index = 0
        skip_tile = False
        for kind in frame.fetch_kind:
            if kind == FETCH_PMD_READ:
                skip_tile = skip is not None and skip[fp_tile[pmd_index]]
                if not skip_tile:
                    pl_access(fetch_tags[pmd_index], False, 0,
                              fetch_ranks[pmd_index])
                pmd_index += 1
            elif kind == FETCH_ATTR_READ:
                if skip_tile:
                    attr_index += 1
                    continue
                nattr = fr_nattr[attr_index]
                hit = attr_read(fr_pid[attr_index], nattr,
                                fr_opt[attr_index], fr_last[attr_index])
                attr_reads += 1
                if hit:
                    attr_read_hits += 1
                pb_buffer_ops += 1
                attr_entries_moved += 2 * nattr
                attr_index += 1
            else:
                skipped = skip is not None and skip[td_tile[done_index]]
                skip_tile = False
                if rendering_elimination:
                    re_counters[1] += 1
                    re_counters[2] += skipped
                # The scoreboard advances for skipped tiles too (the PB
                # frees their lists exactly as if rendered): the mark
                # moves the horizon of every later request.
                mark(len(rq))
                if include_background and not skipped and td_fb[done_index]:
                    fb_tiles += 1
                    if first_fb < 0:
                        first_fb = done_index
                done_index += 1
        attr_flush()
        pl_flush()
        frames.append((frame, start, len(rq), marks, skip, first_fb))
        pl_accesses += pn[0] + pn[1]
        write_bypasses += an[3]
        frame_stats.append(("live.primitive_list", CacheStats(
            reads=pn[0], writes=pn[1], read_misses=pn[2],
            write_misses=pn[3], writebacks=pn[4], clean_evictions=pn[5],
            by_region=_region_stats(pby),
        )))
        frame_stats.append(("live.attribute_cache", AttributeCacheStats(
            reads=an[0], read_misses=an[1], writes=an[2],
            write_bypasses=an[3], evictions=an[4], dirty_evictions=an[5],
            forced_unlocks=an[6], space_evictions=an[7],
        )))

    result.attr_reads = attr_reads
    result.attr_read_hits = attr_read_hits
    result.write_bypasses = write_bypasses
    l2_config = gpu.l2_cache
    l2_stats, memory, l2n, mem = _resolve_l2(
        trace, l2_config, l2_enhancements, rq, frames, include_background,
        header.fb_writes_per_tile * fb_tiles)
    result.structure_accesses = {
        "primitive_list_cache": pl_accesses,
        "primitive_buffer": pb_buffer_ops,
        "attribute_buffer": attr_entries_moved,
        "l2": l2n[0] + l2n[1],
        "dram": mem[0] + mem[1],
    }
    if include_background:
        result.structure_accesses.update(header.l1_estimates)
    if rendering_elimination:
        _finalize_re(result, frame_stats, re_counters)
    _finalize(result, pbc, l2n, mem, memory)
    return ReplayOutcome(result, l2_config.name, l2_stats, memory,
                         frame_stats,
                         {"pb_l2_reads": pbc[0], "pb_l2_writes": pbc[1]})


def _finalize(result: SystemResult, pbc: list, l2n: list, mem: list,
              memory: MemoryCounters) -> None:
    result.pb_l2_reads = pbc[0]
    result.pb_l2_writes = pbc[1]
    result.pb_mm_reads = (memory.region_reads(Region.PB_LISTS)
                          + memory.region_reads(Region.PB_ATTRIBUTES))
    result.pb_mm_writes = (memory.region_writes(Region.PB_LISTS)
                           + memory.region_writes(Region.PB_ATTRIBUTES))
    result.mm_reads = mem[0]
    result.mm_writes = mem[1]
    result.l2_accesses = l2n[0] + l2n[1]
    result.l2_misses = l2n[2] + l2n[3]
    result.dead_writebacks_avoided = l2n[7]


# ----------------------------------------------------------------------
# Tile Fetcher timing
# ----------------------------------------------------------------------
def replay_fetch_timing(trace: CompiledTrace, system: str = "baseline",
                        gpu: GPUConfig | None = None,
                        tcor: TCORConfig | None = None,
                        include_background: bool = True
                        ) -> "ThroughputResult":
    """Replay of :func:`repro.timing.tiling_timing.tile_fetcher_throughput`
    (``gpu`` sizes the baseline's Tile Cache, ``tcor`` TCOR's split).

    Three passes over frame 0.  The L1 pass runs the same cache models
    as the traffic kernels, the build phase untimed, and notes which L2
    requests each fetch event made.  The L2 pass resolves them, with
    the fetch phase's background traffic, into miss flags.  The timing
    pass then applies the live model's issue accounting: every L2 fill
    read an L1 makes costs the L2 latency, plus the memory latency when
    the L2 missed; writebacks are posted.  The MSHR file is a heap of
    ready cycles, because every missing block takes an entry of its own
    (nothing merges).
    """
    # Imported here: the serve workers replay traffic only and never
    # load the timing package.
    from repro.timing.tiling_timing import INFLIGHT_WINDOW, ThroughputResult

    if system not in ("baseline", "tcor"):
        raise ValueError("system must be 'baseline' or 'tcor'")
    gpu = gpu or DEFAULT_GPU
    is_tcor = system == "tcor"
    if is_tcor:
        tcor = tcor or TCORConfig()
        l1_config = tcor.primitive_list_cache
    else:
        l1_config = gpu.tile_cache
    header = trace.header
    _check_supported(header, gpu, (l1_config.line_bytes,))
    mshr_entries = gpu.tiling.mshr_entries
    if mshr_entries <= 0:
        raise ValueError("MSHR file needs at least one entry")

    # L1 pass.
    rq = array("q")
    send = rq.extend
    marks = array("q")
    mark = marks.append
    frame = trace.frames[0]
    l1_access = _block_l1(l1_config.num_sets, l1_config.associativity,
                          send, [0, 0], [0] * 6, {}, pl=is_tcor)[0]
    base_tags = frame.attr_tag_base(header)
    if is_tcor:
        pb_ways = tcor.primitive_buffer_associativity
        pb_sets = max(1, tcor.primitive_buffer_entries // pb_ways)
        attr_read, attr_write, _ = _attr_cache(
            pb_sets, pb_ways, tcor.attribute_buffer_entries, INFLIGHT_WINDOW,
            tcor.write_bypass,
            frame.attr_sets(pb_sets, tcor.use_xor_indexing), base_tags,
            frame.attr_count, send, [0, 0], [0] * 8)
    build_tags, build_ranks, fetch_tags, fetch_ranks = frame.pmd_views(
        header, interleaved=is_tcor)

    # Untimed binning phase: no background traffic, as in the live model.
    bw_pid = frame.bw_pid
    bw_nattr = frame.bw_nattr
    bw_opt = frame.bw_opt
    bw_last = frame.bw_last
    pmd_index = attr_index = 0
    for kind in frame.build_kind:
        if kind == BUILD_PMD_WRITE:
            l1_access(build_tags[pmd_index], True, 0, build_ranks[pmd_index])
            pmd_index += 1
            continue
        mark(len(rq))
        if is_tcor:
            attr_write(bw_pid[attr_index], bw_nattr[attr_index],
                       bw_opt[attr_index], bw_last[attr_index])
        else:
            last = bw_last[attr_index]
            base = base_tags[bw_pid[attr_index]]
            for tag in range(base, base + bw_nattr[attr_index]):
                l1_access(tag, True, 1, last)
        attr_index += 1

    # Fetch phase: ``events`` holds len(rq) before the first fetch event
    # and after each.
    events = array("q", [len(rq)])
    event = events.append
    fr_pid = frame.fr_pid
    fr_nattr = frame.fr_nattr
    fr_opt = frame.fr_opt
    fr_last = frame.fr_last
    pmd_index = attr_index = 0
    for kind in frame.fetch_kind:
        if kind == FETCH_PMD_READ:
            l1_access(fetch_tags[pmd_index], False, 0, fetch_ranks[pmd_index])
            pmd_index += 1
        elif kind == FETCH_ATTR_READ:
            pid = fr_pid[attr_index]
            nattr = fr_nattr[attr_index]
            last = fr_last[attr_index]
            if is_tcor:
                attr_read(pid, nattr, fr_opt[attr_index], last)
            else:
                base = base_tags[pid]
                for tag in range(base, base + nattr):
                    l1_access(tag, False, 1, last)
            attr_index += 1
        else:
            mark(len(rq))
        event(len(rq))

    # L2 pass: each fill read's latency, in request order.
    requests = _requests(rq)
    run_at = requests[4]
    *stream, ends, end_horizons, at, _ = _l2_stream(
        trace, requests, [(frame, 0, len(rq), marks, None, -1)],
        prims=False, background=include_background, teardown=False)
    l2_config = gpu.l2_cache
    missed = _l2_pass(l2_config.num_sets, l2_config.associativity, is_tcor,
                      *stream, ends, end_horizons)[4]
    l2_latency = l2_config.latency_cycles
    is_read = ~requests[1]
    latencies = np.where(missed[at], l2_latency + gpu.memory.avg_latency_cycles,
                         l2_latency)[is_read].tolist()
    reads_before = np.zeros(len(is_read) + 1, dtype=np.int64)
    np.cumsum(is_read, out=reads_before[1:])
    bounds = reads_before[run_at[np.asarray(events) // 5]].tolist()

    # Timing pass.
    # List blocks are prefetched one block ahead, so a block's fetch
    # overlaps half a block of PMDs; only the excess stalls issue.
    overlap = header.pmds_per_block // 2
    mshr: list = []
    peak = 0
    now = stall_cycles = delivered = last_delivery = 0
    for kind, lo, hi in zip(frame.fetch_kind, bounds, bounds[1:]):
        if kind == FETCH_PMD_READ:
            now += 1
            if hi > lo:
                stall = max(latencies[lo:hi]) - overlap
                if stall > 0:
                    now += stall
                    stall_cycles += stall
            while mshr and mshr[0] <= now:
                heappop(mshr)
        elif kind == FETCH_ATTR_READ:
            ready = now + 1
            if hi > lo:
                ready = now
                for latency in latencies[lo:hi]:
                    while len(mshr) >= mshr_entries:
                        earliest = mshr[0]
                        if earliest > now:
                            stall_cycles += earliest - now
                            now = earliest
                        while mshr and mshr[0] <= now:
                            heappop(mshr)
                    heappush(mshr, now + latency)
                    if len(mshr) > peak:
                        peak = len(mshr)
                    if now + latency > ready:
                        ready = now + latency
            delivered += 1
            last_delivery = max(ready, last_delivery + 1)
            while mshr and mshr[0] <= now:
                heappop(mshr)

    return ThroughputResult(
        label=system, alias=header.alias, primitives_delivered=delivered,
        cycles=max(last_delivery, now, 1), issue_stall_cycles=stall_cycles,
        mshr_peak=peak,
    )
