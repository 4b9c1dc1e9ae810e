"""Tile overlap tests (binning geometry).

The Polygon List Builder must decide, for every primitive, exactly which
tiles it overlaps.  A cheap conservative test (bounding box) is refined by
an exact triangle/rectangle intersection test, mirroring the tile-aware
overlap tests of Antochi et al. that the paper builds on.

The exact test treats both shapes as closed regions: touching at a single
point or edge counts as overlap, which is the conservative choice a binner
must make (a missed tile would drop geometry from the image).

Two forms of the test live here.  :func:`bin_triangles` is the binner:
it expands every triangle's clipped bounding box into (triangle, tile)
pairs and runs the exact test on all of them at once in numpy, with the
same edge functions (:func:`_orient`) evaluated in the same order as the
scalar form, so both give the same answer on every pair.
:func:`triangle_overlaps_rect` is the scalar form, kept as the
reference the kernel is tested against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import ScreenConfig
from repro.geometry.primitives import BoundingBox, Primitive, Vertex

# Candidate (triangle, tile) pairs one numpy pass of the binner tests.
# Bounds the kernel's working set to about this many pairs plus one
# triangle's bounding box, however many triangles a call bins.
PAIR_CHUNK = 2048


def tile_rect(screen: ScreenConfig, tile_id: int) -> BoundingBox:
    """Pixel-space rectangle of a tile (clipped to the screen edge)."""
    if not (0 <= tile_id < screen.num_tiles):
        raise ValueError(f"tile {tile_id} out of range")
    tx = tile_id % screen.tiles_x
    ty = tile_id // screen.tiles_x
    min_x = tx * screen.tile_size
    min_y = ty * screen.tile_size
    max_x = min(min_x + screen.tile_size, screen.width)
    max_y = min(min_y + screen.tile_size, screen.height)
    return BoundingBox(min_x, min_y, max_x, max_y)


def _point_in_rect(x: float, y: float, rect: BoundingBox) -> bool:
    return rect.min_x <= x <= rect.max_x and rect.min_y <= y <= rect.max_y


def _orient(ax, ay, bx, by, px, py):
    """Cross product sign of (b - a) x (p - a).

    Takes floats or numpy arrays; the kernel evaluates this same
    expression elementwise, which keeps its answers identical to the
    scalar test's.
    """
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _point_in_triangle(px: float, py: float,
                       a: Vertex, b: Vertex, c: Vertex) -> bool:
    d1 = _orient(a.x, a.y, b.x, b.y, px, py)
    d2 = _orient(b.x, b.y, c.x, c.y, px, py)
    d3 = _orient(c.x, c.y, a.x, a.y, px, py)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def _segments_intersect(p1: tuple[float, float], p2: tuple[float, float],
                        q1: tuple[float, float], q2: tuple[float, float]) -> bool:
    """Closed-segment intersection (collinear touching counts)."""
    d1 = _orient(*q1, *q2, *p1)
    d2 = _orient(*q1, *q2, *p2)
    d3 = _orient(*p1, *p2, *q1)
    d4 = _orient(*p1, *p2, *q2)
    if ((d1 > 0) != (d2 > 0) and (d1 != 0 or d2 != 0)
            and (d3 > 0) != (d4 > 0) and (d3 != 0 or d4 != 0)):
        return True

    def on_segment(a, b, p):
        return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))

    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def triangle_overlaps_rect(prim: Primitive, rect: BoundingBox) -> bool:
    """Exact closed-region triangle/rectangle overlap test (the scalar
    reference for :func:`bin_triangles`)."""
    bbox = prim.bounding_box()
    if not bbox.intersects(rect):
        return False

    # Any triangle vertex inside the rectangle.
    for v in prim.vertices:
        if _point_in_rect(v.x, v.y, rect):
            return True

    # Any rectangle corner inside the triangle.
    corners = (
        (rect.min_x, rect.min_y),
        (rect.max_x, rect.min_y),
        (rect.max_x, rect.max_y),
        (rect.min_x, rect.max_y),
    )
    for cx, cy in corners:
        if _point_in_triangle(cx, cy, prim.v0, prim.v1, prim.v2):
            return True

    # Any pair of edges intersecting.
    tri_edges = (
        ((prim.v0.x, prim.v0.y), (prim.v1.x, prim.v1.y)),
        ((prim.v1.x, prim.v1.y), (prim.v2.x, prim.v2.y)),
        ((prim.v2.x, prim.v2.y), (prim.v0.x, prim.v0.y)),
    )
    rect_edges = (
        (corners[0], corners[1]),
        (corners[1], corners[2]),
        (corners[2], corners[3]),
        (corners[3], corners[0]),
    )
    for te in tri_edges:
        for re in rect_edges:
            if _segments_intersect(te[0], te[1], re[0], re[1]):
                return True
    return False


# -- the batched kernel -------------------------------------------------

# Triangle edge e runs from vertex e to vertex _NEXT_VERTEX[e], and rect
# edge k from corner k to corner _NEXT_CORNER[k], with the corners in the
# scalar test's order: (min, min), (max, min), (max, max), (min, max).
_NEXT_VERTEX = np.array([1, 2, 0])
_NEXT_CORNER = np.array([1, 2, 3, 0])


def _pair_overlaps(xs: np.ndarray, ys: np.ndarray, x0: np.ndarray,
                   y0: np.ndarray, x1: np.ndarray,
                   y1: np.ndarray) -> np.ndarray:
    """:func:`triangle_overlaps_rect` on each (triangle, rect) pair.

    ``xs``/``ys`` are ``(3, P)`` vertex coordinates and ``x0..y1`` the
    ``(P,)`` rect bounds.  The checks run in the scalar test's order, and
    each one only sees the pairs no earlier check decided.  Edge
    functions are ``(4, 3, P)`` arrays: rect corner or edge k by
    triangle vertex or edge e.
    """
    # Bounding boxes intersect, then any triangle vertex in the rect.
    meets = ~((xs.max(axis=0) < x0) | (x1 < xs.min(axis=0))
              | (ys.max(axis=0) < y0) | (y1 < ys.min(axis=0)))
    hit = meets & ((x0 <= xs) & (xs <= x1)
                   & (y0 <= ys) & (ys <= y1)).any(axis=0)
    rest = np.flatnonzero(meets & ~hit)
    if rest.size == 0:
        return hit

    # Any rect corner in the triangle.
    ax, ay = xs[None, :, rest], ys[None, :, rest]
    bx, by = ax[:, _NEXT_VERTEX], ay[:, _NEXT_VERTEX]
    x0, y0, x1, y1 = x0[rest], y0[rest], x1[rest], y1[rest]
    kx = np.stack((x0, x1, x1, x0))[:, None]
    ky = np.stack((y0, y0, y1, y1))[:, None]
    across = _orient(ax, ay, bx, by, kx, ky)  # _point_in_triangle's d1..d3
    inside = ~((across < 0).any(axis=1) & (across > 0).any(axis=1))
    corner_hit = inside.any(axis=0)
    hit[rest[corner_hit]] = True
    undecided = np.flatnonzero(~corner_hit)
    if undecided.size == 0:
        return hit

    # Any triangle edge meeting any rect edge: _segments_intersect with
    # p = triangle edge e and q = rect edge k.
    ax, ay, bx, by, kx, ky, across = (
        a[..., undecided] for a in (ax, ay, bx, by, kx, ky, across))
    lx, ly = kx[_NEXT_CORNER], ky[_NEXT_CORNER]
    d1 = _orient(kx, ky, lx, ly, ax, ay)
    d2 = _orient(kx, ky, lx, ly, bx, by)
    d3, d4 = across, across[_NEXT_CORNER]
    meeting = (((d1 > 0) != (d2 > 0)) & ((d1 != 0) | (d2 != 0))
               & ((d3 > 0) != (d4 > 0)) & ((d3 != 0) | (d4 != 0)))
    # Touching needs an edge function of exactly 0, which is rare.
    if ((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)).any():
        meeting |= ((d1 == 0) & _on_segment(kx, ky, lx, ly, ax, ay)
                    | (d2 == 0) & _on_segment(kx, ky, lx, ly, bx, by)
                    | (d3 == 0) & _on_segment(ax, ay, bx, by, kx, ky)
                    | (d4 == 0) & _on_segment(ax, ay, bx, by, lx, ly))
    hit[rest[undecided]] = meeting.any(axis=(0, 1))
    return hit


def _on_segment(ax, ay, bx, by, px, py):
    """The scalar test's ``on_segment``: p inside segment ab's bbox."""
    return ((np.minimum(ax, bx) <= px) & (px <= np.maximum(ax, bx))
            & (np.minimum(ay, by) <= py) & (py <= np.maximum(ay, by)))


def _check_finite(coords: np.ndarray) -> None:
    """Refuse non-finite vertices, as ``int()`` on their bounds would:
    numpy's float-to-int cast raises for neither."""
    if np.isfinite(coords).all():
        return
    if np.isnan(coords).any():
        raise ValueError("cannot bin a triangle with a NaN vertex coordinate")
    raise OverflowError("cannot bin a triangle with an infinite vertex "
                        "coordinate")


def _tile_span(low: np.ndarray, high: np.ndarray, extent: int,
               tile_size: int, tiles: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last tile index each bbox axis range touches, as
    ``max(0, ceil(low / tile_size) - 1)`` and
    ``min(tiles - 1, int(high) // tile_size)``.  Both ends are closed:
    a tile whose far edge lies on ``low`` is a candidate, as one whose
    near edge lies on ``high`` is.  Clamping to ``[-1, extent]`` first
    keeps the int64 cast exact and changes no result on a visible
    bbox."""
    first = np.maximum(
        np.ceil(np.maximum(low, -1.0) / tile_size).astype(np.int64) - 1, 0)
    last = np.minimum(
        np.minimum(high, float(extent)).astype(np.int64) // tile_size,
        tiles - 1)
    return first, last


def bin_triangles(xs, ys,
                  screen: ScreenConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact binning of many triangles in one call.

    ``xs`` and ``ys`` are ``(n, 3)`` vertex coordinates (v0, v1, v2 per
    row).  Returns ``(counts, tiles)``: ``counts[i]`` is how many tiles
    triangle ``i`` overlaps, and ``tiles`` holds every triangle's
    row-major tile IDs, triangle by triangle.  A triangle fully outside
    the screen overlaps no tile (it would be clipped before binning).

    Raises ``ValueError`` for a NaN and ``OverflowError`` for an infinite
    vertex coordinate.
    """
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, 3)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1, 3)
    _check_finite(xs)
    _check_finite(ys)
    n = len(xs)
    ts = screen.tile_size
    min_x, max_x = xs.min(axis=1), xs.max(axis=1)
    min_y, max_y = ys.min(axis=1), ys.max(axis=1)
    first_tx, last_tx = _tile_span(min_x, max_x, screen.width, ts,
                                   screen.tiles_x)
    first_ty, last_ty = _tile_span(min_y, max_y, screen.height, ts,
                                   screen.tiles_y)
    visible = ~((max_x < 0) | (max_y < 0) | (min_x >= screen.width)
                | (min_y >= screen.height))
    xs, ys = xs.T.copy(), ys.T.copy()  # (3, n): pairs gather columns
    span_x = last_tx - first_tx + 1
    pairs = np.where(visible, span_x * (last_ty - first_ty + 1), 0)
    starts = np.cumsum(pairs) - pairs
    total = int(pairs.sum())

    # Triangles whose first pair falls in the same PAIR_CHUNK window are
    # tested together.
    bounds = np.searchsorted(starts, np.arange(0, total, PAIR_CHUNK)).tolist()
    hit_tris, hit_tiles = [], []
    with np.errstate(all="ignore"):  # as Python floats: inf/nan, no error
        for lo, hi in zip(bounds, bounds[1:] + [n]):
            if lo == hi:
                continue
            tri = np.repeat(np.arange(lo, hi), pairs[lo:hi])
            local = np.arange(len(tri)) - (starts[tri] - starts[lo])
            tx = first_tx[tri] + local % span_x[tri]
            ty = first_ty[tri] + local // span_x[tri]
            x0, y0 = (tx * ts).astype(np.float64), (ty * ts).astype(np.float64)
            x1 = np.minimum(x0 + ts, screen.width)
            y1 = np.minimum(y0 + ts, screen.height)
            hit = _pair_overlaps(xs[:, tri], ys[:, tri], x0, y0, x1, y1)
            hit_tris.append(tri[hit])
            hit_tiles.append((ty * screen.tiles_x + tx)[hit])
    if not hit_tiles:
        return np.zeros(n, dtype=np.int64), np.zeros(0, dtype=np.int64)
    counts = np.bincount(np.concatenate(hit_tris), minlength=n)
    return counts, np.concatenate(hit_tiles)


def bin_primitive_arrays(primitives: Sequence[Primitive],
                         screen: ScreenConfig
                         ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`bin_triangles` over primitives: ``(counts, tiles)``."""
    xs = [(p.v0.x, p.v1.x, p.v2.x) for p in primitives]
    ys = [(p.v0.y, p.v1.y, p.v2.y) for p in primitives]
    return bin_triangles(xs, ys, screen)


def coverage_lists(counts: np.ndarray, tiles: np.ndarray) -> list[list[int]]:
    """:func:`bin_triangles`' arrays as one tile list per triangle."""
    flat = tiles.tolist()
    ends = np.cumsum(counts).tolist()
    return [flat[end - count:end]
            for count, end in zip(counts.tolist(), ends)]


def bin_primitives(primitives: Sequence[Primitive],
                   screen: ScreenConfig) -> list[list[int]]:
    """Row-major IDs of the tiles each primitive overlaps, in one
    :func:`bin_triangles` call."""
    return coverage_lists(*bin_primitive_arrays(primitives, screen))


def tiles_overlapped_by(prim: Primitive, screen: ScreenConfig) -> list[int]:
    """Row-major IDs of every tile the primitive overlaps.

    Primitives fully outside the screen yield an empty list (they would be
    clipped before binning).
    """
    return bin_primitives([prim], screen)[0]
