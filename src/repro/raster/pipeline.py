"""The tile-sequential Raster Pipeline.

Renders a frame the way a TBR GPU does: tile by tile, in the Tile
Fetcher's traversal order, from the per-tile primitive lists of the
Parameter Buffer.  For each tile the on-chip Color Buffer and Z-Buffer
are cleared, every listed primitive is rasterized, early-Z tested,
shaded (a procedural per-primitive color stands in for the fragment
program) and blended; the finished tile is flushed to the Frame Buffer.

The pipeline reads its work from a :class:`ParameterBuffer`, so a
successful render also certifies the whole binning/PB path: geometry in,
pixels out.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.config import ScreenConfig
from repro.geometry.scene import Scene
from repro.geometry.traversal import TraversalOrder, tile_traversal
from repro.pbuffer.builder import ParameterBuffer, build_parameter_buffer
from repro.raster.blend import BlendMode, Color, blend
from repro.raster.rasterizer import rasterize_in_tile
from repro.raster.zbuffer import DepthTest, TileZBuffer


def _procedural_color(primitive_id: int) -> Color:
    """A stable, distinct color per primitive (the 'fragment shader')."""
    hue = (primitive_id * 0.61803398875) % 1.0
    r = 0.5 + 0.5 * np.cos(2 * np.pi * hue)
    g = 0.5 + 0.5 * np.cos(2 * np.pi * (hue + 1 / 3))
    b = 0.5 + 0.5 * np.cos(2 * np.pi * (hue + 2 / 3))
    return (float(r), float(g), float(b), 1.0)


@dataclass
class RasterStats:
    """Per-frame pipeline counters."""

    quads_rasterized: int = 0
    quads_after_z: int = 0
    fragments_shaded: int = 0
    tiles_rendered: int = 0
    framebuffer_flushes: int = 0

    @property
    def early_z_kill_ratio(self) -> float:
        if not self.quads_rasterized:
            return 0.0
        return 1.0 - self.quads_after_z / self.quads_rasterized

    def as_dict(self) -> dict:
        summary = dataclasses.asdict(self)
        summary["early_z_kill_ratio"] = self.early_z_kill_ratio
        return summary


class RasterPipeline:
    """Tile-sequential renderer over a built Parameter Buffer."""

    def __init__(self, pb: ParameterBuffer,
                 blend_mode: BlendMode = BlendMode.REPLACE,
                 depth_test: DepthTest = DepthTest.EARLY,
                 clear_color: Color = (0.0, 0.0, 0.0, 0.0)) -> None:
        self.pb = pb
        self.screen: ScreenConfig = pb.scene.screen
        self.blend_mode = blend_mode
        self.depth_test = depth_test
        self.clear_color = clear_color
        self.stats = RasterStats()
        self._framebuffer = np.zeros(
            (self.screen.height, self.screen.width, 4), dtype=np.float64)
        self._framebuffer[:, :] = clear_color

    @property
    def framebuffer(self) -> np.ndarray:
        """(height, width, rgba) final image in [0, 1]."""
        return self._framebuffer

    def render_tile(self, tile_id: int) -> bool:
        """Render one tile; returns True if any pixel was written."""
        tile_size = self.screen.tile_size
        origin_x = (tile_id % self.screen.tiles_x) * tile_size
        origin_y = (tile_id // self.screen.tiles_x) * tile_size
        slots = self.pb.tile_lists[tile_id]
        self.stats.tiles_rendered += 1
        if not slots:
            return False

        color_buffer = np.zeros((tile_size, tile_size, 4), dtype=np.float64)
        color_buffer[:, :] = self.clear_color
        zbuffer = TileZBuffer(tile_size)
        wrote = False

        for slot in slots:  # program order, as the FIFO delivers them
            prim = self.pb.scene.primitives[slot.pmd.primitive_id]
            color = _procedural_color(prim.primitive_id)
            for quad in rasterize_in_tile(prim, self.screen, tile_id):
                self.stats.quads_rasterized += 1
                if self.depth_test is DepthTest.EARLY:
                    # Early Z: reject before shading (paper Section II-A).
                    surviving = zbuffer.test_and_update(quad, origin_x,
                                                        origin_y)
                    shaded = surviving
                elif self.depth_test is DepthTest.LATE:
                    # Late Z: every covered fragment is shaded, then the
                    # depth test gates the write.
                    shaded = quad.mask
                    surviving = zbuffer.test_and_update(quad, origin_x,
                                                        origin_y)
                else:  # DepthTest.DISABLED: painter's order
                    shaded = surviving = quad.mask
                if not shaded:
                    continue
                if surviving:
                    self.stats.quads_after_z += 1
                for bit, (dx, dy) in enumerate(
                        ((0, 0), (1, 0), (0, 1), (1, 1))):
                    if shaded & (1 << bit):
                        self.stats.fragments_shaded += 1
                    if not surviving & (1 << bit):
                        continue
                    local_x = quad.base_x + dx - origin_x
                    local_y = quad.base_y + dy - origin_y
                    destination = tuple(color_buffer[local_y, local_x])
                    color_buffer[local_y, local_x] = blend(
                        color, destination, self.blend_mode)
                    wrote = True

        if wrote:
            # Flush the on-chip Color Buffer to the Frame Buffer.
            height = min(tile_size, self.screen.height - origin_y)
            width = min(tile_size, self.screen.width - origin_x)
            self._framebuffer[origin_y:origin_y + height,
                              origin_x:origin_x + width] = \
                color_buffer[:height, :width]
            self.stats.framebuffer_flushes += 1
        return wrote

    def render(self, order: TraversalOrder | None = None) -> np.ndarray:
        traversal = tile_traversal(
            self.screen, order if order is not None else self.pb.order)
        for tile_id in traversal:
            self.render_tile(tile_id)
        return self._framebuffer


def render_frame(scene: Scene,
                 order: TraversalOrder = TraversalOrder.Z_ORDER,
                 blend_mode: BlendMode = BlendMode.REPLACE) -> np.ndarray:
    """Convenience: bin a scene and render it; returns the framebuffer."""
    pb = build_parameter_buffer(scene, order)
    return RasterPipeline(pb, blend_mode=blend_mode).render()
