"""Exact tile-overlap (binning) tests."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.config import ScreenConfig
from repro.geometry import overlap
from repro.geometry.overlap import (
    bin_primitives,
    tile_rect,
    tiles_overlapped_by,
    triangle_overlaps_rect,
)
from repro.geometry.primitives import BoundingBox, Primitive, Vertex
from repro.geometry.scene import Scene
from tests.conftest import make_triangle


@pytest.fixture
def screen() -> ScreenConfig:
    return ScreenConfig(128, 128, 32)  # 4x4 tiles


class TestTileRect:
    def test_interior_tile(self, screen):
        rect = tile_rect(screen, 5)  # (x=1, y=1)
        assert (rect.min_x, rect.min_y, rect.max_x, rect.max_y) == \
            (32, 32, 64, 64)

    def test_edge_tile_clipped_to_screen(self):
        screen = ScreenConfig(100, 100, 32)  # 4x4 tiles, last column narrow
        rect = tile_rect(screen, 3)
        assert rect.max_x == 100

    def test_out_of_range(self, screen):
        with pytest.raises(ValueError):
            tile_rect(screen, screen.num_tiles)


class TestTriangleRectOverlap:
    def test_triangle_inside_rect(self):
        rect = BoundingBox(0, 0, 100, 100)
        assert triangle_overlaps_rect(make_triangle(0, 10, 10, 5), rect)

    def test_rect_inside_triangle(self):
        big = Primitive(0, Vertex(-100, -100), Vertex(300, -100),
                        Vertex(-100, 300))
        assert triangle_overlaps_rect(big, BoundingBox(10, 10, 20, 20))

    def test_edge_crossing_without_contained_points(self):
        # A thin triangle slicing through a rect: no vertex of either
        # shape is inside the other.
        sliver = Primitive(0, Vertex(-10, 15), Vertex(50, 15),
                           Vertex(-10, 16))
        assert triangle_overlaps_rect(sliver, BoundingBox(0, 0, 32, 32))

    def test_disjoint(self):
        assert not triangle_overlaps_rect(
            make_triangle(0, 200, 200, 10), BoundingBox(0, 0, 32, 32))

    def test_touching_corner_counts(self):
        # Triangle vertex exactly on the rect corner.
        prim = Primitive(0, Vertex(32, 32), Vertex(40, 32), Vertex(32, 40))
        assert triangle_overlaps_rect(prim, BoundingBox(0, 0, 32, 32))


class TestTilesOverlappedBy:
    def test_single_tile_triangle(self, screen):
        assert tiles_overlapped_by(make_triangle(0, 4, 4, 8), screen) == [0]

    def test_tile_straddling_triangle(self, screen):
        tiles = tiles_overlapped_by(make_triangle(0, 28, 28, 8), screen)
        assert tiles == [0, 1, 4, 5]

    def test_bbox_overestimates_are_filtered(self, screen):
        # A right triangle whose bbox spans 2x2 tiles but whose
        # hypotenuse (x + y = 62) misses the diagonal tile at (32, 32).
        prim = Primitive(0, Vertex(2, 2), Vertex(60, 2), Vertex(2, 60))
        tiles = tiles_overlapped_by(prim, screen)
        assert tiles == [0, 1, 4]  # bbox includes tile 5; the area does not

    def test_offscreen_primitive_is_clipped(self, screen):
        assert tiles_overlapped_by(make_triangle(0, 500, 500, 10), screen) == []
        assert tiles_overlapped_by(make_triangle(0, -50, -50, 10), screen) == []

    def test_full_screen_triangle_covers_everything(self, screen):
        prim = Primitive(0, Vertex(-200, -200), Vertex(600, -200),
                         Vertex(-200, 600))
        assert tiles_overlapped_by(prim, screen) == \
            list(range(screen.num_tiles))

    def test_coverage_is_sorted_row_major(self, screen):
        tiles = tiles_overlapped_by(make_triangle(0, 20, 20, 60), screen)
        assert tiles == sorted(tiles)

    def test_touching_tiles_bin_symmetrically(self, screen):
        """A triangle that touches tiles only at its bounding box's low
        edges bins to them, as its mirror image, which touches tiles
        only at its high edges, does."""
        low = Primitive(0, Vertex(32, 32), Vertex(40, 32), Vertex(32, 40))
        high = Primitive(0, Vertex(64, 64), Vertex(56, 64), Vertex(64, 56))
        assert tiles_overlapped_by(low, screen) == [0, 1, 4, 5]
        assert tiles_overlapped_by(high, screen) == [5, 6, 9, 10]
        for prim, tiles in ((low, [0, 1, 4, 5]), (high, [5, 6, 9, 10])):
            assert tiles == [tile for tile in range(screen.num_tiles)
                             if triangle_overlaps_rect(
                                 prim, tile_rect(screen, tile))]


def scalar_binning(prim: Primitive, screen: ScreenConfig) -> list[int]:
    """The reference binner: the scalar exact test on every tile of the
    bounding box's closed tile range, which includes a tile that only
    touches the box's low edge as it includes one that touches the high
    edge."""
    bbox = prim.bounding_box()
    ts = screen.tile_size
    if bbox.max_x < 0 or bbox.max_y < 0:
        return []
    if bbox.min_x >= screen.width or bbox.min_y >= screen.height:
        return []
    first_tx = max(0, math.ceil(bbox.min_x / ts) - 1)
    first_ty = max(0, math.ceil(bbox.min_y / ts) - 1)
    last_tx = min(screen.tiles_x - 1, int(bbox.max_x) // ts)
    last_ty = min(screen.tiles_y - 1, int(bbox.max_y) // ts)
    return [tile for tile in range(screen.num_tiles)
            if first_tx <= tile % screen.tiles_x <= last_tx
            and first_ty <= tile // screen.tiles_x <= last_ty
            and triangle_overlaps_rect(prim, tile_rect(screen, tile))]


# 100 and 130 are not multiples of their tile sizes: the last column of
# tiles is narrower.
SCREENS = (ScreenConfig(100, 70, 16), ScreenConfig(160, 96, 32),
           ScreenConfig(130, 64, 32))


@st.composite
def binning_cases(draw):
    """A screen and up to 12 triangles: free, with vertices on tile-grid
    lines, collinear, degenerate, or fully off screen."""
    screen = draw(st.sampled_from(SCREENS))
    ts = screen.tile_size
    grid = st.integers(-2, 10).map(lambda k: float(k * ts))
    free = st.floats(-60, 220, allow_nan=False, allow_infinity=False)
    coord = st.one_of(grid, free)
    triangles = []
    for prim_id in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(
            ("free", "grid", "collinear", "axis", "point", "pair",
             "offscreen")))
        if kind == "grid":
            points = [(draw(grid), draw(grid)) for _ in range(3)]
        elif kind == "collinear":
            ax, ay, dx, dy = (draw(st.integers(-40, 200)) for _ in range(4))
            steps = draw(st.lists(st.integers(-3, 3), min_size=3,
                                  max_size=3))
            points = [(float(ax + k * dx), float(ay + k * dy))
                      for k in steps]
        elif kind == "axis":
            at = draw(coord)
            points = [(at, draw(coord)) for _ in range(3)]
            if draw(st.booleans()):
                points = [(y, x) for x, y in points]
        elif kind == "point":
            points = [(draw(coord), draw(coord))] * 3
        elif kind == "pair":
            a, b = (draw(coord), draw(coord)), (draw(coord), draw(coord))
            points = [a, a, b]
        else:
            points = [(draw(coord), draw(coord)) for _ in range(3)]
        if kind == "offscreen":
            shift = draw(st.sampled_from((-400.0, 400.0)))
            axis = draw(st.sampled_from((0, 1)))
            points = [(x + shift * (axis == 0), y + shift * (axis == 1))
                      for x, y in points]
        triangles.append(Primitive(prim_id, *(Vertex(x, y)
                                              for x, y in points)))
    return screen, triangles


class TestBatchedKernel:
    @given(case=binning_cases())
    @settings(max_examples=300, deadline=None)
    def test_batched_coverage_equals_scalar_test_on_every_tile(self, case):
        screen, triangles = case
        assert bin_primitives(triangles, screen) == \
            [scalar_binning(prim, screen) for prim in triangles]

    def test_chunking_does_not_change_coverage(self, monkeypatch):
        screen = ScreenConfig(1960, 768, 32)
        triangles = [make_triangle(i, 37.5 * i % 1900, 11.25 * i % 700,
                                   20 + 13 * i % 140) for i in range(60)]
        whole = bin_primitives(triangles, screen)
        monkeypatch.setattr(overlap, "PAIR_CHUNK", 7)
        assert bin_primitives(triangles, screen) == whole
        assert whole == [scalar_binning(prim, screen) for prim in triangles]

    def test_empty_and_offscreen_batches(self, screen):
        assert bin_primitives([], screen) == []
        assert bin_primitives([make_triangle(0, 500, 500, 10)], screen) == [[]]

    @pytest.mark.parametrize("vertex", [0, 1, 2])
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("value, error", [
        (math.nan, ValueError),
        (math.inf, OverflowError),
        (-math.inf, OverflowError),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_vertex_raises(self, screen, vertex, axis, value,
                                      error):
        points = [Vertex(10.0, 10.0), Vertex(40.0, 10.0),
                  Vertex(10.0, 40.0)]
        x, y = points[vertex].x, points[vertex].y
        points[vertex] = Vertex(value, y) if axis == "x" else Vertex(x, value)
        prim = Primitive(0, *points)
        with pytest.raises(error):
            tiles_overlapped_by(prim, screen)
        with pytest.raises(error):
            Scene(screen, [make_triangle(0, 5, 5),
                           Primitive(1, *points)]).coverage()
