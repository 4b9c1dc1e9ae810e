"""Background (non-Parameter-Buffer) memory traffic.

The L2 is shared by every L1 in the GPU (paper Figure 7): textures,
vertex data and shader instructions all contend with the Parameter
Buffer for L2 capacity, and the Color Buffer streams finished tiles
straight to main memory.  The paper runs the full TEAPOT pipeline; we
substitute a traffic model that reproduces the *pressure* each benchmark
puts on the shared L2:

- **Texture reads** (raster phase, per tile): the number of post-L1-miss
  accesses scales with the benchmark's texture footprint; addresses mix
  a tile-correlated streaming component (each screen region samples its
  own part of texture space) with a hot mip/atlas working set shared
  across tiles, which is what gives real texture streams their L2 reuse.
- **Instruction reads** (raster phase): a small, heavily reused footprint
  proportional to the shader length.
- **Vertex reads** (geometry phase, per primitive): a streaming walk over
  the vertex buffer with indexed-mesh reuse.
- **Color Buffer writes** (per finished tile): one main-memory write per
  line of the 32x32x4-byte tile, bypassing the L2.

All magnitudes scale with the workload's geometry ``scale`` so reduced
test runs keep every traffic ratio.

:meth:`~BackgroundTrafficModel.tile_accesses` and
:meth:`~BackgroundTrafficModel.primitive_accesses` generate one entity
at a time and are the reference (the live simulator calls them).
:meth:`~BackgroundTrafficModel.tile_stream` and
:meth:`~BackgroundTrafficModel.primitive_stream` produce the same
accesses for every tile or primitive in one numpy pass over the
rebuilt generators of :mod:`repro.workloads.pcg`; the trace compiler
uses them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.config import ScreenConfig
from repro.workloads import pcg
from repro.workloads.trace import Access, Op, Region

MIB = 1024 * 1024

TEXTURE_BASE = 0x4000_0000
VERTEX_BASE = 0x5000_0000
INSTRUCTION_BASE = 0x6000_0000
FRAMEBUFFER_BASE = 0x7000_0000

BLOCK = 64

# Fraction of texture reads that hit the shared hot set (mip tails, UI
# atlases) rather than the tile-local streaming region.
_HOT_FRACTION = 0.15
# Post-L1 texture accesses per frame per byte of texture footprint: a
# streaming pass plus some revisits.
_TEXTURE_STREAM_FACTOR = 2.5
# Bytes per vertex (position + a couple of varyings).
_VERTEX_BYTES = 32
# Indexed meshes touch each vertex ~2x but the vertex L1 absorbs the
# repeats; roughly one L2 access per primitive survives.
_VERTEX_L2_PER_PRIMITIVE = 1.0
# Lossless framebuffer compression (AFBC-style) shrinks Color Buffer
# flushes; mobile GPUs ship this generation of techniques alongside TBR.
_FRAMEBUFFER_COMPRESSION = 0.55
# Rebuilt generator words per numpy pass: bounds the tile pass's
# temporaries (a few arrays of this many 64-bit words).
_CHUNK_WORDS = 1 << 17


class AccessArrays(NamedTuple):
    """Many entities' accesses as flat int64 arrays, in entity order:
    entity ``k`` owns positions ``offsets[k]`` to ``offsets[k + 1]``."""

    address: np.ndarray
    region: np.ndarray
    op: np.ndarray
    offsets: np.ndarray


def _arrays_of(per_entity: list[list[Access]]) -> AccessArrays:
    """Flatten per-entity access lists (the scalar path)."""
    lengths = np.fromiter((len(accesses) for accesses in per_entity),
                          dtype=np.int64, count=len(per_entity))
    offsets = np.zeros(len(per_entity) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    flat = [access for accesses in per_entity for access in accesses]
    return AccessArrays(
        np.fromiter((a.address for a in flat), np.int64, len(flat)),
        np.fromiter((a.region for a in flat), np.int64, len(flat)),
        np.fromiter((a.op for a in flat), np.int64, len(flat)),
        offsets)


class BackgroundTrafficModel:
    """Per-benchmark generator of non-PB L2/main-memory accesses."""

    def __init__(self, spec, screen: ScreenConfig, scale: float = 1.0,
                 seed: int | None = None) -> None:
        self.spec = spec
        self.screen = screen
        self.scale = scale
        # Stateless generation: every tile/primitive derives its own RNG,
        # so baseline and TCOR replay byte-identical background traffic
        # and repeated simulations are deterministic.
        self._seed = spec.seed if seed is None else seed
        self.texture_bytes = max(BLOCK, int(spec.texture_mib * MIB * scale))
        self.instruction_bytes = max(
            BLOCK, spec.shader_insts_per_pixel * 64
        )
        total_texture_accesses = int(
            self.texture_bytes / BLOCK * _TEXTURE_STREAM_FACTOR
        )
        self.texture_accesses_per_tile = max(
            1, total_texture_accesses // screen.num_tiles
        )
        self.instruction_accesses_per_tile = max(
            1, round(spec.shader_insts_per_pixel / 4 * scale)
        )
        # Hot set: a few percent of the texture footprint.
        self.hot_bytes = max(BLOCK, self.texture_bytes // 16)

    # ------------------------------------------------------------------
    # Raster phase (per tile)
    # ------------------------------------------------------------------
    def _window_bytes(self) -> int:
        """Size of each tile's streaming window into texture space."""
        return max(BLOCK, self.texture_bytes // self.screen.num_tiles * 4)

    def _window_base(self, tile_id):
        """Where a tile's window starts (an int, or an array of them)."""
        tiles = self.screen.num_tiles
        return TEXTURE_BASE + (
            (tile_id * (self.texture_bytes // max(1, tiles)))
            % max(BLOCK, self.texture_bytes - self._window_bytes() + BLOCK)
        )

    def _instruction_addresses(self) -> list[int]:
        return [INSTRUCTION_BASE + (slot * BLOCK) % self.instruction_bytes
                for slot in range(self.instruction_accesses_per_tile)]

    def tile_accesses(self, tile_id: int) -> list[Access]:
        """Texture + instruction L2 reads for rasterizing one tile."""
        rng = np.random.default_rng((self._seed, 1, tile_id))
        accesses: list[Access] = []
        # Tile-correlated streaming window into texture space.
        window_bytes = self._window_bytes()
        window_base = self._window_base(tile_id)
        for _ in range(self.texture_accesses_per_tile):
            if rng.random() < _HOT_FRACTION:
                offset = int(rng.integers(0, self.hot_bytes // BLOCK))
                address = TEXTURE_BASE + offset * BLOCK
            else:
                offset = int(rng.integers(0, window_bytes // BLOCK))
                address = window_base + offset * BLOCK
            accesses.append(Access(Op.READ, Region.TEXTURE, address))
        for address in self._instruction_addresses():
            accesses.append(Access(Op.READ, Region.INSTRUCTION, address))
        return accesses

    def tile_stream(self) -> AccessArrays:
        """:meth:`tile_accesses` of every tile, in tile order.

        Each tile's texture loop alternates ``random()`` (one 64-bit
        word) and ``integers()`` (one buffered 32-bit half), so the
        ``k``-th iteration reads word ``3 * (k // 2)`` (even ``k``) or
        ``3 * (k // 2) + 2`` (odd ``k``) and the low or high half of
        word ``3 * (k // 2) + 1``.  A tile whose ``integers()`` would
        reject a half, and every tile of a model the rebuild does not
        cover, comes from :meth:`tile_accesses`.
        """
        tiles = self.screen.num_tiles
        textures = self.texture_accesses_per_tile
        instructions = self._instruction_addresses()
        per_tile = textures + len(instructions)
        hot_bound = self.hot_bytes // BLOCK
        window_bound = self._window_bytes() // BLOCK
        if not (pcg.covered(self._seed) and pcg.covered(tiles - 1)
                and 2 <= hot_bound <= pcg.MASK32
                and 2 <= window_bound <= pcg.MASK32):
            return _arrays_of([self.tile_accesses(tile)
                               for tile in range(tiles)])
        address = np.empty((tiles, per_tile), dtype=np.int64)
        address[:, textures:] = instructions
        region = np.empty((tiles, per_tile), dtype=np.int64)
        region[:, :textures] = int(Region.TEXTURE)
        region[:, textures:] = int(Region.INSTRUCTION)
        op = np.full((tiles, per_tile), int(Op.READ), dtype=np.int64)

        step = np.arange(textures)
        odd = (step % 2).astype(bool)
        pair = 3 * (step // 2)
        words_per_tile = 3 * (textures // 2) + 2 * (textures % 2)
        chunk = max(1, _CHUNK_WORDS // words_per_tile)
        for start in range(0, tiles, chunk):
            ids = np.arange(start, min(tiles, start + chunk))
            words = pcg.raw_words(*pcg.seeded_states((self._seed, 1), ids),
                                  words_per_tile)
            hot = pcg.uniform(words[:, pair + 2 * odd]) < _HOT_FRACTION
            shared = words[:, pair + 1]
            halves = np.where(odd, shared >> np.uint64(32),
                              shared & np.uint64(pcg.MASK32))
            hot_offset, hot_rejected = pcg.lemire(halves, hot_bound)
            window_offset, window_rejected = pcg.lemire(halves,
                                                        window_bound)
            address[start:start + len(ids), :textures] = np.where(
                hot, TEXTURE_BASE + hot_offset * BLOCK,
                self._window_base(ids)[:, None] + window_offset * BLOCK)
            rejected = np.where(hot, hot_rejected, window_rejected)
            for tile in ids[rejected.any(axis=1)].tolist():
                row = _arrays_of([self.tile_accesses(tile)])
                address[tile], region[tile], op[tile] = row[:3]
        return AccessArrays(address.ravel(), region.ravel(), op.ravel(),
                            np.arange(tiles + 1, dtype=np.int64) * per_tile)

    def framebuffer_writes_per_tile(self) -> int:
        """Color Buffer lines flushed to main memory per finished tile.

        Compressed (AFBC-style) and scaled with the workload so reduced
        test runs keep the Parameter Buffer's share of total traffic.
        Callers skip the flush entirely for tiles with no geometry
        (transaction elimination: an unchanged tile is never written).
        """
        tile_pixels = self.screen.tile_size * self.screen.tile_size
        return max(1, round(tile_pixels * 4 // BLOCK
                            * _FRAMEBUFFER_COMPRESSION * self.scale))

    # ------------------------------------------------------------------
    # Geometry phase (per primitive)
    # ------------------------------------------------------------------
    def primitive_accesses(self, primitive_id: int) -> list[Access]:
        """Vertex-fetch L2 reads while binning one primitive."""
        rng = np.random.default_rng((self._seed, 2, primitive_id))
        accesses: list[Access] = []
        expected = _VERTEX_L2_PER_PRIMITIVE
        count = int(expected) + (1 if rng.random() < expected % 1 else 0)
        for i in range(count):
            address = (VERTEX_BASE
                       + ((primitive_id * 3 + i) * _VERTEX_BYTES) // BLOCK * BLOCK)
            accesses.append(Access(Op.READ, Region.VERTEX, address))
        return accesses

    def primitive_stream(self, num_primitives: int) -> AccessArrays:
        """:meth:`primitive_accesses` of primitives ``0 ..
        num_primitives - 1``, in id order (each reads one word, its
        ``random()``)."""
        if not (pcg.covered(self._seed)
                and pcg.covered(max(0, num_primitives - 1))):
            return _arrays_of([self.primitive_accesses(pid)
                               for pid in range(num_primitives)])
        expected = _VERTEX_L2_PER_PRIMITIVE
        draws = np.empty(num_primitives, dtype=np.float64)
        for start in range(0, num_primitives, _CHUNK_WORDS):
            ids = np.arange(start, min(num_primitives, start + _CHUNK_WORDS))
            words = pcg.raw_words(*pcg.seeded_states((self._seed, 2), ids), 1)
            draws[start:start + len(ids)] = pcg.uniform(words[:, 0])
        count = int(expected) + (draws < expected % 1).astype(np.int64)
        offsets = np.zeros(num_primitives + 1, dtype=np.int64)
        np.cumsum(count, out=offsets[1:])
        pid = np.repeat(np.arange(num_primitives, dtype=np.int64), count)
        index = np.arange(len(pid), dtype=np.int64) - offsets[:-1][pid]
        address = (VERTEX_BASE
                   + ((pid * 3 + index) * _VERTEX_BYTES) // BLOCK * BLOCK)
        return AccessArrays(address,
                            np.full(len(pid), int(Region.VERTEX), np.int64),
                            np.full(len(pid), int(Op.READ), np.int64),
                            offsets)

    # ------------------------------------------------------------------
    # L1-level access estimates (energy accounting only)
    # ------------------------------------------------------------------
    def l1_access_estimates(self, num_primitives: int) -> dict[str, int]:
        """Accesses each non-Tile L1 absorbs per frame.

        These are identical for baseline and TCOR; they only enter the
        energy denominators.  Texture L1s see ~2 texel fetches per pixel;
        instruction caches one fetch per shader instruction per pixel;
        the vertex cache 3 vertices per primitive.
        """
        pixels = self.screen.width * self.screen.height
        return {
            "texture_l1": int(2 * pixels * self.scale),
            "instruction_l1": int(
                self.spec.shader_insts_per_pixel * pixels * self.scale
            ),
            "vertex_l1": 3 * num_primitives,
        }
