"""Replay kernels: run cache models over the IR, bit-identically.

Each kernel re-implements one live simulator path (``simulate_baseline``
/ ``simulate_tcor``, and the Tile Fetcher timing model
``tile_fetcher_throughput``) as closure-based state machines over the
compiled trace's flat arrays, with cache state held as per-set ``{tag:
[dirty, region, rank, stamp]}`` maps.  The encoding choices are dictated by
bit-identity with the live path, which tests/test_replay_equivalence.py
gates for every figure workload and policy:

- **Insertion-ordered per-set dicts** (not flat set*ways+way arrays)
  reproduce the live cache's victim tie-breaking exactly: LRU == the
  minimum insertion/hit stamp, the dead-line policy == the minimum
  ``(priority, stamp)`` pair, and the Attribute Cache's in-set OPT
  victim is the first maximum in insertion order — all of which depend
  on residency order.
- A single **monotonic stamp** replaces the recency ``OrderedDict``s
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

The live simulator remains the reference oracle; the kernels carry no
authority of their own.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

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
# Shared L2 engine
# ----------------------------------------------------------------------
def _l2_engine(num_sets: int, ways: int, dead_policy: bool,
               completed: list):
    """State machine for SharedL2 / TcorSharedL2 over one run.

    Returns ``(access, writeback_pb, mem_record, finalize)``;
    ``access`` returns whether the access missed.  Counter layout
    ``n``: [reads, writes, read_misses, write_misses, writebacks,
    clean_evictions, dead_evictions, dead_writebacks_avoided].
    """
    sets: list = [dict() for _ in range(num_sets)]
    n = [0] * 8
    by: dict = {}
    mem = [0, 0]
    mem_by: dict = {}
    tick = [0]

    def mem_record(is_write, region) -> None:
        mem[1 if is_write else 0] += 1
        entry = mem_by.get(region)
        if entry is None:
            entry = mem_by[region] = [0, 0]
        entry[1 if is_write else 0] += 1

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
            else:
                n[0] += 1
                entry[0] += 1
            line[1] = region
            if rank is not None:
                line[2] = rank
            line[3] = tick[0]
            tick[0] += 1
            return False
        if is_write:
            n[1] += 1
            n[3] += 1
            entry[1] += 1
        else:
            n[0] += 1
            n[2] += 1
            entry[0] += 1
        entry[2] += 1
        if not is_write:
            mem_record(False, region)
        if len(lines) >= ways:
            if dead_policy:
                horizon = completed[0]
                victim_tag = None
                victim_priority = 3
                victim_stamp = 0
                for resident_tag, resident in lines.items():
                    if resident[1] <= 1:
                        resident_rank = resident[2]
                        priority = 0 if (resident_rank is not None
                                         and resident_rank <= horizon) else 2
                    else:
                        priority = 1
                    if (priority < victim_priority
                            or (priority == victim_priority
                                and resident[3] < victim_stamp)):
                        victim_priority = priority
                        victim_stamp = resident[3]
                        victim_tag = resident_tag
            else:
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
            if dead_policy:
                victim_rank = victim[2]
                victim_dead = (victim[1] <= 1 and victim_rank is not None
                               and victim_rank <= completed[0])
                if victim_dead:
                    n[6] += 1
                if victim[0]:
                    if victim_dead:
                        n[7] += 1
                    else:
                        mem_record(True, victim[1])
            elif victim[0]:
                mem_record(True, victim[1])
        lines[tag] = [1 if is_write else 0, region, rank, tick[0]]
        tick[0] += 1
        return True

    def writeback_pb(use_dead: bool) -> None:
        """End-of-frame PB teardown (``_writeback_pb_lines``)."""
        for lines in sets:
            pb_tags = [tag for tag, line in lines.items() if line[1] <= 1]
            for tag in pb_tags:
                line = lines.pop(tag)
                if not line[0]:
                    n[5] += 1
                    continue
                n[4] += 1
                rank = line[2]
                if use_dead and rank is not None and rank <= completed[0]:
                    n[7] += 1
                else:
                    mem_record(True, line[1])

    def finalize():
        stats = CacheStats(
            reads=n[0], writes=n[1], read_misses=n[2], write_misses=n[3],
            writebacks=n[4], clean_evictions=n[5], dead_evictions=n[6],
            dead_writebacks_avoided=n[7],
            by_region=_region_stats(by),
        )
        memory = MemoryCounters(
            reads=mem[0], writes=mem[1],
            by_region={Region(region): {"reads": entry[0],
                                        "writes": entry[1]}
                       for region, entry in mem_by.items()},
        )
        return stats, memory, n, mem

    return access, writeback_pb, mem_record, finalize


# ----------------------------------------------------------------------
# Block-granularity L1s (baseline Tile Cache / Primitive List Cache)
# ----------------------------------------------------------------------
def _block_l1(num_sets: int, ways: int, l2_access, pbc: list, n: list,
              by: dict, pl: bool):
    """One frame's LRU block cache in front of the L2.

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
            l2_access(tag, False, region, rank)
            pbc[0] += 1
        if is_write:
            written.add(tag)
        if victim is not None and victim[0]:
            l2_access(victim_tag, True,
                      0 if pl else (victim[1] or region), victim[2])
            pbc[1] += 1

    def flush() -> None:
        for lines in sets:
            for tag in list(lines):
                line = lines.pop(tag)
                if line[0]:
                    n[4] += 1
                    l2_access(tag, True, 0 if pl else (line[1] or 1),
                              line[2])
                    pbc[1] += 1
                else:
                    n[5] += 1

    return access, flush


# ----------------------------------------------------------------------
# TCOR Attribute Cache
# ----------------------------------------------------------------------
def _attr_cache(num_sets: int, ways: int, ab_entries: int, window: int,
                write_bypass: bool, set_of: list, base_tags: list,
                counts: list, l2_access, pbc: list, an: list):
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
        base = base_tags[pid]
        count = counts[pid]
        for tag in range(base, base + count):
            l2_access(tag, True, 1, rank)
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
        base = base_tags[pid]
        for tag in range(base, base + nattr):
            l2_access(tag, False, 1, last)
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

    completed = [-1]
    l2_config = gpu.l2_cache
    l2_access, writeback_pb, mem_record, l2_finalize = _l2_engine(
        l2_config.num_sets, l2_config.associativity, False, completed)
    pbc = [0, 0]
    result = SystemResult(label="baseline", alias=header.alias)
    tile_config = gpu.tile_cache
    tile_cache_accesses = 0
    frame_stats: list = []
    attr_reads = 0
    fb_writes = header.fb_writes_per_tile

    bg_t_tag = trace.bg_tile_tag
    bg_t_reg = trace.bg_tile_reg
    bg_t_wr = trace.bg_tile_wr
    bg_t_off = trace.bg_tile_off
    bg_p_tag = trace.bg_prim_tag
    bg_p_reg = trace.bg_prim_reg
    bg_p_wr = trace.bg_prim_wr
    bg_p_off = trace.bg_prim_off

    re_counters = [0, 0, 0]  # [compares, tiles_total, tiles_skipped]
    prev_sig = None

    for frame in trace.frames:
        skip = None
        if rendering_elimination:
            skip, prev_sig = _frame_skip(frame, prev_sig, re_counters)
        tn = [0] * 6
        tby: dict = {}
        t_access, t_flush = _block_l1(tile_config.num_sets,
                                      tile_config.associativity,
                                      l2_access, pbc, tn, tby, pl=False)
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
                pid = bw_pid[attr_index]
                if include_background:
                    for j in range(bg_p_off[pid], bg_p_off[pid + 1]):
                        l2_access(bg_p_tag[j], bg_p_wr[j] == 1,
                                  bg_p_reg[j], None)
                last = bw_last[attr_index]
                base = base_tags[pid]
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
                tile = td_tile[done_index]
                skipped = skip is not None and skip[tile]
                skip_tile = False
                if rendering_elimination:
                    re_counters[1] += 1
                    re_counters[2] += skipped
                if include_background and not skipped:
                    for j in range(bg_t_off[tile], bg_t_off[tile + 1]):
                        l2_access(bg_t_tag[j], bg_t_wr[j] == 1,
                                  bg_t_reg[j], None)
                    if td_fb[done_index]:
                        for _ in range(fb_writes):
                            mem_record(True, _FB)
                done_index += 1
        t_flush()
        tile_cache_accesses += tn[0] + tn[1]
        frame_stats.append(("live.tile", CacheStats(
            reads=tn[0], writes=tn[1], read_misses=tn[2],
            write_misses=tn[3], writebacks=tn[4], clean_evictions=tn[5],
            by_region=_region_stats(tby),
        )))
        writeback_pb(False)

    result.attr_reads = attr_reads
    l2_stats, memory, l2n, mem = l2_finalize()
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

    completed = [-1]
    l2_config = gpu.l2_cache
    l2_access, writeback_pb, mem_record, l2_finalize = _l2_engine(
        l2_config.num_sets, l2_config.associativity, l2_enhancements,
        completed)
    pbc = [0, 0]
    label = "tcor" if l2_enhancements else "tcor_no_l2"
    result = SystemResult(label=label, alias=header.alias)
    pb_ways = tcor.primitive_buffer_associativity
    pb_sets = max(1, tcor.primitive_buffer_entries // pb_ways)
    window = gpu.tiling.output_queue_entries
    fb_writes = header.fb_writes_per_tile

    pl_accesses = 0
    pb_buffer_ops = 0
    attr_entries_moved = 0
    attr_reads = 0
    attr_read_hits = 0
    write_bypasses = 0
    frame_stats: list = []

    bg_t_tag = trace.bg_tile_tag
    bg_t_reg = trace.bg_tile_reg
    bg_t_wr = trace.bg_tile_wr
    bg_t_off = trace.bg_tile_off
    bg_p_tag = trace.bg_prim_tag
    bg_p_reg = trace.bg_prim_reg
    bg_p_wr = trace.bg_prim_wr
    bg_p_off = trace.bg_prim_off

    re_counters = [0, 0, 0]  # [compares, tiles_total, tiles_skipped]
    prev_sig = None

    for frame in trace.frames:
        completed[0] = -1
        skip = None
        if rendering_elimination:
            skip, prev_sig = _frame_skip(frame, prev_sig, re_counters)
        pn = [0] * 6
        pby: dict = {}
        pl_access, pl_flush = _block_l1(pl_config.num_sets,
                                        pl_config.associativity,
                                        l2_access, pbc, pn, pby, pl=True)
        an = [0] * 8
        set_of = frame.attr_sets(pb_sets, tcor.use_xor_indexing)
        base_tags = frame.attr_tag_base(header)
        attr_read, attr_write, attr_flush = _attr_cache(
            pb_sets, pb_ways, tcor.attribute_buffer_entries, window,
            tcor.write_bypass, set_of, base_tags, frame.attr_count,
            l2_access, pbc, an)
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
                pid = bw_pid[attr_index]
                if include_background:
                    for j in range(bg_p_off[pid], bg_p_off[pid + 1]):
                        l2_access(bg_p_tag[j], bg_p_wr[j] == 1,
                                  bg_p_reg[j], None)
                nattr = bw_nattr[attr_index]
                attr_write(pid, nattr, bw_opt[attr_index],
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
        td_rank = frame.td_rank
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
                tile = td_tile[done_index]
                skipped = skip is not None and skip[tile]
                skip_tile = False
                if rendering_elimination:
                    re_counters[1] += 1
                    re_counters[2] += skipped
                # The scoreboard advances for skipped tiles too: the PB
                # frees their lists exactly as if rendered.
                completed[0] = td_rank[done_index]
                if include_background and not skipped:
                    for j in range(bg_t_off[tile], bg_t_off[tile + 1]):
                        l2_access(bg_t_tag[j], bg_t_wr[j] == 1,
                                  bg_t_reg[j], None)
                    if td_fb[done_index]:
                        for _ in range(fb_writes):
                            mem_record(True, _FB)
                done_index += 1
        attr_flush()
        pl_flush()
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
        writeback_pb(l2_enhancements)

    result.attr_reads = attr_reads
    result.attr_read_hits = attr_read_hits
    result.write_bypasses = write_bypasses
    l2_stats, memory, l2n, mem = l2_finalize()
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

    Frame 0 goes through the same cache engines as the traffic kernels:
    the build phase untimed, then the fetch phase with the live model's
    issue accounting on top.  Every L2 fill read an L1 makes costs the
    L2 latency, plus the memory latency when the L2 missed; writebacks
    are posted.  The MSHR file is a heap of ready cycles, because every
    missing block takes an entry of its own (nothing merges).
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

    completed = [-1]
    l2_config = gpu.l2_cache
    l2_access = _l2_engine(l2_config.num_sets, l2_config.associativity,
                           is_tcor, completed)[0]
    l2_latency = l2_config.latency_cycles
    miss_latency = l2_latency + gpu.memory.avg_latency_cycles
    latencies: list = []

    def fill(tag, is_write, region, rank) -> None:
        missed = l2_access(tag, is_write, region, rank)
        if not is_write:
            latencies.append(miss_latency if missed else l2_latency)

    frame = trace.frames[0]
    l1_access = _block_l1(l1_config.num_sets, l1_config.associativity,
                          fill, [0, 0], [0] * 6, {}, pl=is_tcor)[0]
    base_tags = frame.attr_tag_base(header)
    if is_tcor:
        pb_ways = tcor.primitive_buffer_associativity
        pb_sets = max(1, tcor.primitive_buffer_entries // pb_ways)
        attr_read, attr_write, _ = _attr_cache(
            pb_sets, pb_ways, tcor.attribute_buffer_entries, INFLIGHT_WINDOW,
            tcor.write_bypass,
            frame.attr_sets(pb_sets, tcor.use_xor_indexing), base_tags,
            frame.attr_count, fill, [0, 0], [0] * 8)
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
        if is_tcor:
            attr_write(bw_pid[attr_index], bw_nattr[attr_index],
                       bw_opt[attr_index], bw_last[attr_index])
        else:
            last = bw_last[attr_index]
            base = base_tags[bw_pid[attr_index]]
            for tag in range(base, base + bw_nattr[attr_index]):
                l1_access(tag, True, 1, last)
        attr_index += 1
    latencies.clear()

    # Timed fetch phase.
    fr_pid = frame.fr_pid
    fr_nattr = frame.fr_nattr
    fr_opt = frame.fr_opt
    fr_last = frame.fr_last
    td_tile = frame.td_tile
    td_rank = frame.td_rank
    bg_t_tag = trace.bg_tile_tag
    bg_t_reg = trace.bg_tile_reg
    bg_t_wr = trace.bg_tile_wr
    bg_t_off = trace.bg_tile_off
    # List blocks are prefetched one block ahead, so a block's fetch
    # overlaps half a block of PMDs; only the excess stalls issue.
    overlap = header.pmds_per_block // 2
    mshr: list = []
    peak = 0
    now = stall_cycles = delivered = last_delivery = 0
    pmd_index = attr_index = done_index = 0
    for kind in frame.fetch_kind:
        if kind == FETCH_PMD_READ:
            now += 1
            l1_access(fetch_tags[pmd_index], False, 0, fetch_ranks[pmd_index])
            pmd_index += 1
            if latencies:
                stall = max(latencies) - overlap
                if stall > 0:
                    now += stall
                    stall_cycles += stall
                latencies.clear()
            while mshr and mshr[0] <= now:
                heappop(mshr)
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
            ready = now + 1
            if latencies:
                ready = now
                for latency in latencies:
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
                latencies.clear()
            delivered += 1
            last_delivery = max(ready, last_delivery + 1)
            while mshr and mshr[0] <= now:
                heappop(mshr)
        else:
            completed[0] = td_rank[done_index]
            if include_background:
                tile = td_tile[done_index]
                for j in range(bg_t_off[tile], bg_t_off[tile + 1]):
                    l2_access(bg_t_tag[j], bg_t_wr[j] == 1, bg_t_reg[j],
                              None)
            done_index += 1

    return ThroughputResult(
        label=system, alias=header.alias, primitives_delivered=delivered,
        cycles=max(last_delivery, now, 1), issue_stall_cycles=stall_cycles,
        mshr_peak=peak,
    )
