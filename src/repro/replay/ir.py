"""The config-independent access-trace IR (compile once, replay many).

The paper's enabling observation — the Parameter Buffer stream is fully
determined before any cache sees it — means a workload's entire access
sequence can be lowered *once* into flat parallel arrays and then
replayed through any number of cache configurations.  This module is the
compiler half: :func:`compile_workload` lowers every frame straight from
its scene's binning arrays (:meth:`~repro.geometry.scene.Scene.binning`)
and the fixed tile traversal order, in numpy, as the Polygon List
Builder derives them, and captures

- per frame, the build/fetch event streams as parallel ``kind`` +
  operand arrays (tile/position for PMD traffic, primitive id /
  attribute count / OPT Number / last-use rank for attribute traffic,
  tile id / rank / flush flag for ``TileDone``);
- per frame, the Parameter Buffer address map (attribute base blocks and
  counts, the tile-rank table);
- at trace level, the background (texture/vertex/instruction) access
  stream, which is frame-independent by construction (stateless
  per-tile/per-primitive RNG derivation);
- a header binding the trace to the workload (alias, scale, geometry
  constants) so persisted traces are content-addressed by the PR 2
  code-signature scheme (see ``DiskCache.get_trace``).

The lowering builds no ``ParameterBuffer`` and no Tiling Engine event
object: the frame it produces equals, field for field, the one the
event walk over ``Workload.traces`` gives, which stays the reference
(tests/test_lowering.py).

Everything configuration-*dependent* (PB-Lists layout, set counts,
indexing functions) is resolved lazily by the memoized view helpers the
replay kernels call, so one compiled trace serves baseline and TCOR,
contiguous and interleaved, 64 KiB and 128 KiB alike.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from repro.config import ParameterBufferConfig
from repro.geometry.scene import Scene
from repro.geometry.traversal import (TraversalOrder, tile_traversal,
                                      traversal_rank)
from repro.pbuffer.pmd import NO_NEXT_TILE
from repro.workloads.suite import Workload

# Bump whenever the IR layout changes; persisted traces with another
# version fail to load (treated as a cache miss by DiskCache.get_trace).
# v2: per-frame ``tile_sig`` arrays (Rendering Elimination signatures).
# v3: one flat little-endian file behind a JSON header and a CRC-32.
TRACE_IR_VERSION = 3


def trace_ir_compatible(theirs) -> bool:
    """Whether a persisted trace's IR version can be replayed.

    The IR has no compatibility span: kernels index the arrays
    positionally, so any layout change is a full break.  All version
    comparisons go through this helper, so the rule lives in one
    place.
    """
    return theirs == TRACE_IR_VERSION

# Event kinds, build stream.
BUILD_PMD_WRITE = 0
BUILD_ATTR_WRITE = 1
# Event kinds, fetch stream.
FETCH_PMD_READ = 0
FETCH_ATTR_READ = 1
FETCH_TILE_DONE = 2

_I64 = np.int64


def _np(values) -> np.ndarray:
    return np.asarray(values, dtype=_I64)


class FrameIR:
    """One frame's compiled event streams and PB address map.

    All arrays are plain Python ``list``s of ints at runtime (the replay
    kernels iterate them in tight loops where lists beat ndarrays);
    serialization converts to int64 ndarrays.
    """

    __slots__ = (
        "build_kind", "bp_tile", "bp_pos",
        "bw_pid", "bw_nattr", "bw_opt", "bw_last",
        "fetch_kind", "fp_tile", "fp_pos",
        "fr_pid", "fr_nattr", "fr_opt", "fr_last",
        "td_tile", "td_rank", "td_fb",
        "attr_base", "attr_count", "rank_of_tile", "tile_sig",
        "_views",
    )

    def __init__(self, build_kind, bp_tile, bp_pos,
                 bw_pid, bw_nattr, bw_opt, bw_last,
                 fetch_kind, fp_tile, fp_pos,
                 fr_pid, fr_nattr, fr_opt, fr_last,
                 td_tile, td_rank, td_fb,
                 attr_base, attr_count, rank_of_tile, tile_sig) -> None:
        self.build_kind = build_kind
        self.bp_tile = bp_tile
        self.bp_pos = bp_pos
        self.bw_pid = bw_pid
        self.bw_nattr = bw_nattr
        self.bw_opt = bw_opt
        self.bw_last = bw_last
        self.fetch_kind = fetch_kind
        self.fp_tile = fp_tile
        self.fp_pos = fp_pos
        self.fr_pid = fr_pid
        self.fr_nattr = fr_nattr
        self.fr_opt = fr_opt
        self.fr_last = fr_last
        self.td_tile = td_tile
        self.td_rank = td_rank
        self.td_fb = td_fb
        self.attr_base = attr_base
        self.attr_count = attr_count
        self.rank_of_tile = rank_of_tile
        # Per-tile Rendering Elimination signatures (56-bit ints; 0 for
        # empty tiles), one per tile — identical to what the live
        # simulator computes from the frame's scene.
        self.tile_sig = tile_sig
        self._views: dict = {}

    @property
    def num_accesses(self) -> int:
        """Logical accesses this frame contributes (throughput metric)."""
        return len(self.build_kind) + len(self.fetch_kind)

    # ------------------------------------------------------------------
    # Config-dependent memoized views
    # ------------------------------------------------------------------
    def pmd_views(self, header: "TraceHeader", interleaved: bool):
        """(build_tags, build_ranks, fetch_tags, fetch_ranks) lists.

        Tags are 64-byte line addresses of each PMD access under the
        requested PB-Lists layout; ranks are the dead-line tag of the
        owning tile (``layout.tile_of_block`` recovers the event's tile
        exactly for both layouts, so the rank is the event tile's rank).
        """
        key = ("pmd", interleaved)
        cached = self._views.get(key)
        if cached is not None:
            return cached
        shift = header.block_bytes.bit_length() - 1
        ranks = _np(self.rank_of_tile)
        out = []
        for tiles, positions in ((self.bp_tile, self.bp_pos),
                                 (self.fp_tile, self.fp_pos)):
            t = _np(tiles)
            p = _np(positions)
            if interleaved:
                section, offset = np.divmod(p, header.pmds_per_block)
                addr = (header.lists_base
                        + (section * header.num_tiles + t) * header.block_bytes
                        + offset * header.pmd_bytes)
            else:
                addr = (header.lists_base + t * header.tile_list_bytes
                        + p * header.pmd_bytes)
            out.append((addr >> shift).tolist())
            out.append(ranks[t].tolist() if len(t) else [])
        view = tuple(out)
        self._views[key] = view
        return view

    def attr_tag_base(self, header: "TraceHeader") -> list:
        """First 64-byte block tag of every primitive's attribute run.

        Attributes are block-aligned at one block per attribute, so
        primitive ``p`` owns tags ``base[p] .. base[p]+count[p]-1``.
        """
        cached = self._views.get("attr_base")
        if cached is None:
            shift = header.block_bytes.bit_length() - 1
            cached = (_np(self.attr_base) >> shift).tolist()
            self._views["attr_base"] = cached
        return cached

    def background(self, trace: "CompiledTrace", skip=None,
                   prims: bool = True) -> "BackgroundStream":
        """The frame's background L2 stream, in the order a run sends it.

        One segment per ``AttributeWrite`` in build order (the
        primitive's segment, or empty when ``prims`` is off), then one
        per ``TileDone`` in fetch order (the tile's segment, or empty
        for a tile ``skip`` marks as eliminated).  The segments are
        memoized per skip mask: they depend on nothing else.
        """
        key = ("bg", prims, None if skip is None else bytes(skip))
        cached = self._views.get(key)
        if cached is None:
            cached = BackgroundStream(self, trace, skip, prims)
            self._views[key] = cached
        return cached

    def attr_sets(self, num_sets: int, use_xor: bool) -> list:
        """Primitive-id -> Primitive Buffer set index, per indexing fn."""
        key = ("attr_sets", num_sets, use_xor)
        cached = self._views.get(key)
        if cached is not None:
            return cached
        if not use_xor:
            cached = [pid % num_sets for pid in range(len(self.attr_count))]
        else:
            bits = max(1, (num_sets - 1).bit_length())
            mask = (1 << bits) - 1
            power_of_two = num_sets & (num_sets - 1) == 0
            cached = []
            for pid in range(len(self.attr_count)):
                folded = 0
                remaining = pid
                while remaining:
                    folded ^= remaining & mask
                    remaining >>= bits
                cached.append(folded if power_of_two and folded < num_sets
                              else folded % num_sets)
        self._views[key] = cached
        return cached


def narrow_tags(tags: np.ndarray) -> np.ndarray:
    """``tags`` as int32 when every one fits, which halves the replay
    kernels' largest arrays; else unchanged."""
    if len(tags) and int(tags.max()) < 1 << 31:
        return tags.astype(np.int32)
    return tags


def run_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs ``starts[i], starts[i] + 1, ...`` of ``lengths[i]``
    integers each, concatenated."""
    total = int(lengths.sum())
    run_start = np.cumsum(lengths) - lengths
    return (np.repeat(starts - run_start, lengths)
            + np.arange(total, dtype=_I64))


class BackgroundStream:
    """One frame's background accesses as flat arrays (see
    :meth:`FrameIR.background`).

    ``tag``/``write``/``region`` describe each access and ``horizon``
    is the dead-line horizon it is sent under: -1 in the build phase,
    the finished tile's rank in the fetch phase.  ``seg_start[k]`` is
    the index of segment ``k``'s first access (one entry more than
    there are segments) and ``seg_of`` names each access's segment.
    """

    __slots__ = ("tag", "write", "region", "horizon", "seg_start",
                 "seg_of")

    def __init__(self, frame: FrameIR, trace: "CompiledTrace", skip,
                 prims: bool) -> None:
        pids = _np(frame.bw_pid)
        tiles = _np(frame.td_tile)
        prim_off = trace.bg_prim_off
        tile_off = trace.bg_tile_off
        prim_len = prim_off[pids + 1] - prim_off[pids]
        if not prims:
            prim_len[:] = 0
        tile_len = tile_off[tiles + 1] - tile_off[tiles]
        if skip is not None:
            tile_len[np.asarray(skip, dtype=bool)[tiles]] = 0
        prim_at = run_indices(prim_off[pids], prim_len)
        tile_at = run_indices(tile_off[tiles], tile_len)
        self.tag = narrow_tags(np.concatenate((trace.bg_prim_tag[prim_at],
                                               trace.bg_tile_tag[tile_at])))
        self.write = np.concatenate((trace.bg_prim_wr[prim_at],
                                     trace.bg_tile_wr[tile_at])) == 1
        self.region = np.concatenate((trace.bg_prim_reg[prim_at],
                                      trace.bg_tile_reg[tile_at])
                                     ).astype(np.int8)
        self.horizon = np.concatenate((
            np.full(len(prim_at), -1, dtype=np.int32),
            np.repeat(np.asarray(frame.td_rank, dtype=np.int32), tile_len)))
        lengths = np.concatenate((prim_len, tile_len))
        self.seg_start = np.zeros(len(lengths) + 1, dtype=_I64)
        np.cumsum(lengths, out=self.seg_start[1:])
        self.seg_of = np.repeat(np.arange(len(lengths), dtype=np.int32),
                                lengths)


class TraceHeader:
    """Workload identity + the geometry constants the kernels need."""

    __slots__ = ("alias", "scale", "num_tiles", "num_primitives",
                 "block_bytes", "pmd_bytes", "pmds_per_block",
                 "lists_base", "tile_list_bytes", "attribute_stride",
                 "fb_writes_per_tile", "l1_estimates")

    def __init__(self, alias, scale, num_tiles, num_primitives,
                 block_bytes, pmd_bytes, pmds_per_block, lists_base,
                 tile_list_bytes, attribute_stride, fb_writes_per_tile,
                 l1_estimates) -> None:
        self.alias = alias
        self.scale = scale
        self.num_tiles = num_tiles
        self.num_primitives = num_primitives
        self.block_bytes = block_bytes
        self.pmd_bytes = pmd_bytes
        self.pmds_per_block = pmds_per_block
        self.lists_base = lists_base
        self.tile_list_bytes = tile_list_bytes
        self.attribute_stride = attribute_stride
        self.fb_writes_per_tile = fb_writes_per_tile
        self.l1_estimates = l1_estimates

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class CompiledTrace:
    """A workload lowered to replayable arrays: header + background +
    per-frame event streams.  The ``bg_*`` arrays are int64 ndarrays:
    per tile / per primitive segments delimited by ``*_off``."""

    __slots__ = ("header", "frames",
                 "bg_tile_tag", "bg_tile_reg", "bg_tile_wr", "bg_tile_off",
                 "bg_prim_tag", "bg_prim_reg", "bg_prim_wr", "bg_prim_off")

    def __init__(self, header, frames,
                 bg_tile_tag, bg_tile_reg, bg_tile_wr, bg_tile_off,
                 bg_prim_tag, bg_prim_reg, bg_prim_wr, bg_prim_off) -> None:
        self.header = header
        self.frames = frames
        self.bg_tile_tag = bg_tile_tag
        self.bg_tile_reg = bg_tile_reg
        self.bg_tile_wr = bg_tile_wr
        self.bg_tile_off = bg_tile_off
        self.bg_prim_tag = bg_prim_tag
        self.bg_prim_reg = bg_prim_reg
        self.bg_prim_wr = bg_prim_wr
        self.bg_prim_off = bg_prim_off

    @property
    def num_accesses(self) -> int:
        return sum(frame.num_accesses for frame in self.frames)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _kinds(pattern: tuple[int, ...], runs: np.ndarray,
           mark: int) -> list:
    """An event-kind stream: ``runs[i]`` repeats of ``pattern`` and then
    one ``mark``, for each ``i``."""
    body = np.tile(np.array(pattern, dtype=_I64), int(runs.sum()))
    return np.insert(body, np.cumsum(runs * len(pattern)), mark).tolist()


def lower_frame(scene: Scene,
                order: TraversalOrder = TraversalOrder.Z_ORDER,
                pbuffer: ParameterBufferConfig | None = None) -> FrameIR:
    """One frame's IR from its binning arrays and the traversal order.

    The Polygon List Builder appends each binned primitive's PMDs in
    its row-major tile order, then writes its attributes; a PMD's
    position is the number of earlier primitives on its tile, and its
    OPT Number the next greater traversal rank among the primitive's
    tiles.  The Tile Fetcher reads every tile's list in traversal order
    and closes each tile with a ``TileDone``.  Raises the Parameter
    Buffer's ``OverflowError`` when a tile's list outgrows
    ``pbuffer.max_primitives_per_tile``.
    """
    from repro.anim.signatures import tile_signatures

    pbuffer = pbuffer or ParameterBufferConfig()
    screen = scene.screen
    num_tiles = screen.num_tiles
    counts, tiles = scene.binning()
    nattr = np.fromiter((prim.num_attributes for prim in scene.primitives),
                        dtype=_I64, count=len(scene))
    rank = _np(traversal_rank(screen, order))
    traversal = _np(tile_traversal(screen, order))

    # Pairs (primitive, tile) in binning order, and each PMD's position.
    pair_pid = np.repeat(np.arange(len(counts), dtype=_I64), counts)
    list_len = np.bincount(tiles, minlength=num_tiles)
    by_tile = np.argsort(tiles, kind="stable")
    position = np.empty_like(tiles)
    position[by_tile] = (np.arange(len(tiles), dtype=_I64)
                         - np.repeat(np.cumsum(list_len) - list_len,
                                     list_len))
    limit = pbuffer.max_primitives_per_tile
    overflow = np.flatnonzero(position >= limit)
    if overflow.size:
        raise OverflowError(f"tile {int(tiles[overflow[0]])} exceeds the "
                            f"{limit}-primitive list limit")

    # Per primitive, its tiles by traversal rank: OPT Numbers, and the
    # first-use and last-use ranks of every binned primitive.
    pair_rank = rank[tiles]
    by_use = np.argsort(pair_pid * num_tiles + pair_rank)
    use_rank = pair_rank[by_use]
    use_pid = pair_pid[by_use]
    next_rank = np.full(len(tiles), NO_NEXT_TILE, dtype=_I64)
    same = use_pid[1:] == use_pid[:-1]
    next_rank[:-1][same] = use_rank[1:][same]
    opt = np.empty_like(next_rank)
    opt[by_use] = next_rank
    binned = np.flatnonzero(counts)
    ends = np.cumsum(counts[binned])
    first_use = use_rank[ends - counts[binned]]
    last_use = use_rank[ends - 1]
    last_of = np.full(len(counts), NO_NEXT_TILE, dtype=_I64)
    last_of[binned] = last_use

    # The Tile Fetcher's order: traversal rank, then list position.
    by_fetch = np.argsort(pair_rank, kind="stable")
    fetch_pid = pair_pid[by_fetch]
    fetched = list_len[traversal]

    stride = pbuffer.attribute_stride
    attr_base = (pbuffer.pb_attributes_pointer
                 + np.cumsum(nattr * stride) - nattr * stride)
    return FrameIR(
        _kinds((BUILD_PMD_WRITE,), counts[binned], BUILD_ATTR_WRITE),
        tiles.tolist(), position.tolist(),
        binned.tolist(), nattr[binned].tolist(), first_use.tolist(),
        last_use.tolist(),
        _kinds((FETCH_PMD_READ, FETCH_ATTR_READ), fetched, FETCH_TILE_DONE),
        tiles[by_fetch].tolist(), position[by_fetch].tolist(),
        fetch_pid.tolist(), nattr[fetch_pid].tolist(),
        opt[by_fetch].tolist(), last_of[fetch_pid].tolist(),
        traversal.tolist(), list(range(num_tiles)),
        (fetched > 0).astype(_I64).tolist(),
        attr_base.tolist(), nattr.tolist(), rank.tolist(),
        tile_signatures(scene),
    )


def compile_workload(workload: Workload) -> CompiledTrace:
    """Lower a workload into the IR: :func:`lower_frame` per scene,
    plus the background stream."""
    screen = workload.screen
    background = workload.background
    pbuffer = workload.pbuffer or ParameterBufferConfig()
    shift = 6  # 64-byte blocks
    if pbuffer.block_bytes != 1 << shift:
        raise ValueError("trace IR assumes 64-byte Parameter Buffer blocks")
    if not workload.scenes:
        raise ValueError("workload has no frames to compile")
    frames = [lower_frame(scene, workload.order, pbuffer)
              for scene in workload.scenes]

    # Background traffic is frame-independent (stateless per-entity RNG),
    # so it is captured once at trace level and indexed by tile id /
    # primitive id during replay.
    num_prims = max(len(frame.attr_count) for frame in frames)
    tile_bg = background.tile_stream()
    prim_bg = background.primitive_stream(num_prims)
    header = TraceHeader(
        alias=workload.spec.alias,
        scale=workload.scale,
        num_tiles=screen.num_tiles,
        num_primitives=workload.num_primitives,
        block_bytes=pbuffer.block_bytes,
        pmd_bytes=pbuffer.pmd_bytes,
        pmds_per_block=pbuffer.pmds_per_block,
        lists_base=pbuffer.pb_lists_pointer,
        tile_list_bytes=(pbuffer.max_primitives_per_tile
                         * pbuffer.pmd_bytes),
        attribute_stride=pbuffer.attribute_stride,
        fb_writes_per_tile=background.framebuffer_writes_per_tile(),
        l1_estimates=background.l1_access_estimates(
            workload.num_primitives),
    )
    return CompiledTrace(
        header, frames,
        tile_bg.address >> shift, tile_bg.region, tile_bg.op, tile_bg.offsets,
        prim_bg.address >> shift, prim_bg.region, prim_bg.op, prim_bg.offsets,
    )


def compiled_trace_for(workload: Workload) -> CompiledTrace:
    """Get-or-compile the workload's trace (memoized on the workload)."""
    trace = workload.compiled_trace
    if trace is None:
        trace = compile_workload(workload)
        workload.compiled_trace = trace
    return trace


# ----------------------------------------------------------------------
# Serialization: one flat file, checksummed
# ----------------------------------------------------------------------
_FRAME_FIELDS = (
    "build_kind", "bp_tile", "bp_pos",
    "bw_pid", "bw_nattr", "bw_opt", "bw_last",
    "fetch_kind", "fp_tile", "fp_pos",
    "fr_pid", "fr_nattr", "fr_opt", "fr_last",
    "td_tile", "td_rank", "td_fb",
    "attr_base", "attr_count", "rank_of_tile", "tile_sig",
)
_TRACE_FIELDS = (
    "bg_tile_tag", "bg_tile_reg", "bg_tile_wr", "bg_tile_off",
    "bg_prim_tag", "bg_prim_reg", "bg_prim_wr", "bg_prim_off",
)

# File layout: magic and header length (``_PREFIX``), the JSON header,
# the sections' little-endian integers back to back, then the CRC-32 of
# everything before it (``_CRC``).  The header names each section's
# dtype and length, in file order.
_MAGIC = b"TCORTIR\n"
_PREFIX = struct.Struct("<8sI")
_CRC = struct.Struct("<I")
_DTYPES = ("i1", "i2", "i4", "i8")


def _narrowest(values) -> np.ndarray:
    """``values`` in the narrowest little-endian integer dtype that
    holds them all."""
    array = _np(values)
    low, high = (int(array.min()), int(array.max())) if len(array) \
        else (0, 0)
    for code in _DTYPES[:-1]:
        info = np.iinfo(code)
        if info.min <= low and high <= info.max:
            return array.astype("<" + code)
    return array.astype("<i8")


def save_trace(file, trace: CompiledTrace) -> None:
    """Serialize to an open binary file handle."""
    sections = [(name, getattr(trace, name)) for name in _TRACE_FIELDS]
    for index, frame in enumerate(trace.frames):
        sections += [(f"f{index}_{name}", getattr(frame, name))
                     for name in _FRAME_FIELDS]
    arrays = [_narrowest(values) for _, values in sections]
    meta = {
        "version": TRACE_IR_VERSION,
        "header": trace.header.as_dict(),
        "num_frames": len(trace.frames),
        "sections": [[name, array.dtype.str[1:], len(array)]
                     for (name, _), array in zip(sections, arrays)],
    }
    head = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = b"".join([_PREFIX.pack(_MAGIC, len(head)), head]
                    + [array.tobytes() for array in arrays])
    file.write(body)
    file.write(_CRC.pack(zlib.crc32(body)))


def load_trace(file) -> CompiledTrace:
    """Deserialize from an open binary file handle.

    Raises ``ValueError`` for anything but a whole file of the current
    version: a wrong magic, a checksum mismatch (a torn, truncated or
    corrupted file), a malformed header or an IR version mismatch.
    """
    data = file.read()
    body_end = len(data) - _CRC.size
    if body_end < _PREFIX.size:
        raise ValueError("trace file truncated")
    magic, head_len = _PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a compiled trace file")
    (crc,) = _CRC.unpack_from(data, body_end)
    if zlib.crc32(memoryview(data)[:body_end]) != crc:
        raise ValueError("trace file checksum mismatch")
    offset = _PREFIX.size + head_len
    try:
        meta = json.loads(data[_PREFIX.size:offset].decode("utf-8"))
        version = meta.get("version")
        if not trace_ir_compatible(version):
            raise ValueError(
                f"trace IR version {version} != {TRACE_IR_VERSION}")
        arrays = {}
        for name, code, count in meta["sections"]:
            if code not in _DTYPES:
                raise ValueError(f"unknown section dtype {code!r}")
            arrays[name] = np.frombuffer(data, "<" + code, count, offset)
            offset += arrays[name].nbytes
        if offset != body_end:
            raise ValueError("trace sections do not fill the file")
        header = TraceHeader(**meta["header"])
        frames = [FrameIR(**{name: arrays[f"f{index}_{name}"].tolist()
                             for name in _FRAME_FIELDS})
                  for index in range(meta["num_frames"])]
        trace_fields = {name: arrays[name].astype(_I64)
                        for name in _TRACE_FIELDS}
    except (AttributeError, KeyError, TypeError) as error:
        raise ValueError(f"malformed trace header: {error!r}") from error
    return CompiledTrace(header, frames, **trace_fields)
