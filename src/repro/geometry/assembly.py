"""Primitive Assembly over indexed meshes.

The Primitive Assembler (paper Figure 2) takes transformed vertices in
program order and joins every three indices into a triangle.  This
module models the front half of that path: an indexed mesh, the vertex
transform, backface/near-plane culling, and the emission of screen-space
:class:`~repro.geometry.primitives.Primitive` objects with dense IDs —
exactly what the Polygon List Builder consumes.

It also measures index-stream locality (the vertex-cache hit ratio of a
FIFO post-transform cache), which is where the background traffic
model's vertex-fetch constants come from.
"""

from __future__ import annotations

from collections import OrderedDict
import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

from repro.geometry.primitives import Primitive, Vertex
from repro.geometry.transform import VertexTransform


@dataclass(frozen=True)
class IndexedMesh:
    """Object-space triangle mesh: positions + a flat index buffer."""

    positions: tuple[tuple[float, float, float], ...]
    indices: tuple[int, ...]
    attributes_per_vertex: int = 3

    def __post_init__(self) -> None:
        if len(self.indices) % 3:
            raise ValueError("index count must be a multiple of 3")
        if self.indices and max(self.indices) >= len(self.positions):
            raise ValueError("index out of range")
        if not (1 <= self.attributes_per_vertex <= 15):
            raise ValueError("attribute count must fit the PMD field")

    @property
    def num_triangles(self) -> int:
        return len(self.indices) // 3

    @classmethod
    def cube(cls, size: float = 1.0) -> "IndexedMesh":
        """A unit-ish cube centered at the origin: 8 vertices, 12 tris."""
        h = size / 2.0
        positions = tuple(
            (x, y, z)
            for x in (-h, h) for y in (-h, h) for z in (-h, h)
        )
        quads = [
            (0, 1, 3, 2), (4, 6, 7, 5),   # x- and x+ faces
            (0, 4, 5, 1), (2, 3, 7, 6),   # y- and y+
            (0, 2, 6, 4), (1, 5, 7, 3),   # z- and z+
        ]
        indices: list[int] = []
        for a, b, c, d in quads:
            indices.extend((a, b, c, a, c, d))
        return cls(positions=positions, indices=tuple(indices))


@dataclass
class AssemblyStats:
    triangles_in: int = 0
    emitted: int = 0
    culled_near_plane: int = 0
    culled_backface: int = 0
    culled_degenerate: int = 0
    vertex_cache_hits: int = 0
    vertex_cache_lookups: int = 0

    @property
    def vertex_cache_hit_ratio(self) -> float:
        if not self.vertex_cache_lookups:
            return 0.0
        return self.vertex_cache_hits / self.vertex_cache_lookups

    def as_dict(self) -> dict:
        summary = dataclasses.asdict(self)
        summary["vertex_cache_hit_ratio"] = self.vertex_cache_hit_ratio
        return summary


class PrimitiveAssembly:
    """Transform + cull + assemble an indexed mesh into primitives.

    ``post_transform_cache`` models the FIFO vertex cache that makes
    indexed meshes cheap: a hit means the vertex shader (and the vertex
    fetch) is skipped for that index.
    """

    def __init__(self, transform: VertexTransform,
                 backface_culling: bool = True,
                 post_transform_cache: int = 16) -> None:
        self.transform = transform
        self.backface_culling = backface_culling
        self.cache_entries = post_transform_cache
        self.stats = AssemblyStats()

    def assemble(self, mesh: IndexedMesh,
                 first_primitive_id: int = 0) -> list[Primitive]:
        cache: OrderedDict[int, object] = OrderedDict()
        transformed: dict[int, object] = {}

        def shade_vertex(index: int):
            self.stats.vertex_cache_lookups += 1
            if index in cache:
                self.stats.vertex_cache_hits += 1
                return cache[index]
            result = self.transform.to_screen(mesh.positions[index])
            cache[index] = result
            if len(cache) > self.cache_entries:
                cache.popitem(last=False)
            return result

        primitives: list[Primitive] = []
        next_id = first_primitive_id
        for triangle in range(mesh.num_triangles):
            self.stats.triangles_in += 1
            idx = mesh.indices[3 * triangle:3 * triangle + 3]
            screen = [shade_vertex(i) for i in idx]
            if any(v is None for v in screen):
                self.stats.culled_near_plane += 1
                continue
            prim = Primitive(
                next_id,
                Vertex(screen[0].x, screen[0].y, screen[0].depth),
                Vertex(screen[1].x, screen[1].y, screen[1].depth),
                Vertex(screen[2].x, screen[2].y, screen[2].depth),
                num_attributes=mesh.attributes_per_vertex,
            )
            if prim.is_degenerate():
                self.stats.culled_degenerate += 1
                continue
            # In y-down screen space a counter-clockwise (front-facing,
            # y-up convention) triangle has negative signed area.
            if self.backface_culling and prim.signed_area() > 0:
                self.stats.culled_backface += 1
                continue
            primitives.append(prim)
            next_id += 1
        self.stats.emitted += len(primitives)
        return primitives
