"""The Rendering Elimination model (early discard of redundant tiles).

Between the Polygon List Builder and the raster fetch phase sits a
small signature unit: it stores one 56-bit signature per tile
(:mod:`repro.anim.signatures`) and, at the start of each frame's fetch
phase, compares every tile's signature against the previous frame's.
A match means the tile's rasterizer inputs are unchanged, so the tile
is *discarded*: its PMD reads, attribute fetches, framebuffer writes
and background raster traffic never happen.  The build phase is never
elided — geometry and binning must run to produce the signatures in
the first place — which mirrors where the RE paper places the check
(after geometry, before raster).

Interaction with TCOR's OPT machinery: a discarded tile still reports
``tile_done`` to the tile-progress scoreboard, because the Parameter
Buffer frees its lists exactly as if it had rendered.  OPT numbers
computed at build time therefore remain a *valid* (if optimistic)
next-use order — a primitive whose next user is skipped is simply
fetched one tile later than predicted, which degrades OPT toward its
usual offline bound but never reorders evictions incorrectly.

The stats discipline matches the cache models: :class:`REStats` is the
dataclass the live engine mutates and the replay kernels reconstruct
from raw counters; the animated live == replay gate
(``tests/test_replay_equivalence.py``) compares the two field for field
and their registry snapshots name for name.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.anim.signatures import skip_mask

#: The registry conservation rule for satellite invariant checking:
#: every considered tile is either rendered or skipped, no third state.
RE_ACCOUNTING_RULE = (
    "RE tile conservation: rendered + skipped == considered",
    ("live.re.tiles_rendered", "live.re.tiles_skipped"),
    ("live.re.tiles_total",),
)


@dataclass
class REStats:
    """Counters of the Rendering Elimination signature unit."""

    signature_compares: int = 0
    tiles_total: int = 0
    tiles_skipped: int = 0
    tiles_rendered: int = 0

    @property
    def skip_fraction(self) -> float:
        if self.tiles_total == 0:
            return 0.0
        return self.tiles_skipped / self.tiles_total

    def as_dict(self) -> dict:
        data = asdict(self)
        data["skip_fraction"] = self.skip_fraction
        return data

    def register(self, registry, prefix: str) -> None:
        """Expose the counters as ``<prefix>.*`` metrics."""
        registry.register(prefix, self)


class RenderingElimination:
    """Per-sequence signature unit state.

    One instance spans all frames of a workload: it remembers the
    previous frame's signature table and produces the skip mask the
    simulator consults before generating any fetch-phase traffic.
    """

    def __init__(self) -> None:
        self.stats = REStats()
        self._previous: list[int] | None = None

    def begin_frame(self, signatures: list[int]) -> list[bool] | None:
        """Install a frame's signatures; return its skip mask.

        Frame 0 returns ``None`` (nothing to compare against — render
        everything).  Later frames charge one signature compare per
        tile, empty tiles included: the unit reads both tables in full
        before it knows which entries are empty.
        """
        previous = self._previous
        self._previous = signatures
        if previous is None:
            return None
        self.stats.signature_compares += len(signatures)
        return skip_mask(signatures, previous)

    def tile_done(self, skipped: bool) -> None:
        """Account one completed tile (rendered or discarded)."""
        self.stats.tiles_total += 1
        if skipped:
            self.stats.tiles_skipped += 1
        else:
            self.stats.tiles_rendered += 1
