"""Multi-frame animated workloads over the benchmark suite.

``build_workload`` generates every frame independently (full reseed per
frame), which models *statistics* but destroys the inter-frame
coherence tile renderers live on.  This module supplies the coherent
counterpart: frame 0 is exactly the suite's base scene, and each later
frame derives from persistent object state —

- a **camera path** (:mod:`repro.anim.paths`) applies one affine
  transform to the whole frame,
- **object churn** respawns a seeded fraction of objects with fresh
  geometry at fresh locations (content change without population
  change: primitive count and dense IDs stay fixed),
- **object jitter** drifts each object along a per-object velocity
  sampled once per sequence (rigid translation + slow spin about the
  object's base centroid).

Determinism contract: every random draw is seeded by the benchmark
seed, the animation seed and the *frame index* — never by the total
frame count — so any ``AnimationSpec.prefix(k)`` reproduces the first
``k`` frames bit-for-bit.  That property makes animated request keys
content-addressed and lets the streaming serve client submit a
sequence as cumulative prefixes that coalesce and memoize perfectly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.anim.paths import (Affine2D, IDENTITY, camera_transform,
                              rotation_about)
from repro.anim.spec import AnimationSpec
from repro.config import DEFAULT_GPU, ParameterBufferConfig, ScreenConfig
from repro.geometry.generator import (SceneGenerator, fat_triangle,
                                      sample_attribute_count)
from repro.geometry.primitives import Primitive
from repro.geometry.scene import Scene
from repro.geometry.traversal import TraversalOrder
from repro.workloads.suite import (
    BenchmarkSpec,
    Workload,
    build_workload,
    scene_parameters,
)


def _frame_rng(spec: BenchmarkSpec, anim: AnimationSpec,
               frame: int) -> np.random.Generator:
    """Per-frame entropy, keyed by (benchmark, animation, frame) only.

    ``frame`` -1 is the sequence-level stream (per-object velocities);
    the +1 shift keeps every entropy component non-negative for numpy's
    SeedSequence.
    """
    return np.random.default_rng((spec.seed, anim.seed, frame + 1))


def _object_velocities(spec: BenchmarkSpec, anim: AnimationSpec,
                       num_objects: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-object drift velocities, sampled once per sequence.

    Translation is ``jitter`` pixels/frame in a uniform direction; the
    angular velocity is a slow spin proportional to the same knob.
    """
    rng = _frame_rng(spec, anim, -1)
    headings = rng.uniform(0.0, 2.0 * math.pi, size=num_objects)
    velocity = anim.jitter * np.stack(
        [np.cos(headings), np.sin(headings)], axis=1)
    spins = rng.uniform(-1.0, 1.0, size=num_objects) * anim.jitter * 0.004
    return velocity, spins


def _respawn_object(prims: list[Primitive], generator: SceneGenerator,
                    rng: np.random.Generator) -> list[Primitive]:
    """Fresh geometry for one churned object (same IDs, same count).

    Placement and sizing follow the generator's distributions so a
    churned frame keeps the suite's measured statistics; only identity
    (which pixels, which attributes) changes.
    """
    p = generator.params
    screen = generator.screen
    span = math.sqrt(p.coverage_fraction)
    active_w = screen.width * span
    active_h = screen.height * span
    min_x = (screen.width - active_w) / 2
    min_y = (screen.height - active_h) / 2
    ocx = rng.uniform(min_x, min_x + active_w)
    ocy = rng.uniform(min_y, min_y + active_h)
    spread = generator.calibrated_extent * 1.5
    fresh: list[Primitive] = []
    for prim in prims:
        extent = float(generator.calibrated_extent
                       * rng.lognormal(0.0, p.size_spread))
        cx = float(np.clip(ocx + rng.uniform(-spread, spread),
                           1, screen.width - 2))
        cy = float(np.clip(ocy + rng.uniform(-spread, spread),
                           1, screen.height - 2))
        fresh.append(fat_triangle(
            prim.primitive_id, cx, cy, extent,
            sample_attribute_count(p.mean_attributes, rng), rng))
    return fresh


def _object_transform(base: list[Primitive], velocity, spin: float,
                      frame: int) -> Affine2D:
    """The rigid drift of one object at ``frame`` (identity at 0)."""
    xs = [v.x for prim in base for v in prim.vertices]
    ys = [v.y for prim in base for v in prim.vertices]
    pivot_x = sum(xs) / len(xs)
    pivot_y = sum(ys) / len(ys)
    rotation = rotation_about(pivot_x, pivot_y, spin * frame)
    return Affine2D(
        a=rotation.a, b=rotation.b, c=rotation.c, d=rotation.d,
        tx=rotation.tx + float(velocity[0]) * frame,
        ty=rotation.ty + float(velocity[1]) * frame,
    )


def build_animated_workload(
        spec: BenchmarkSpec, anim: AnimationSpec, scale: float = 1.0,
        screen: ScreenConfig | None = None,
        order: TraversalOrder = TraversalOrder.Z_ORDER,
        pbuffer: ParameterBufferConfig | None = None) -> Workload:
    """A coherent multi-frame :class:`Workload` for one benchmark.

    The returned workload is structurally identical to the suite's —
    same spec, screen, background model, one scene per frame — so every
    consumer (live simulator, trace compiler, energy model) works
    unchanged; the workload additionally records ``anim`` so caches and
    the serve layer can key on the sequence recipe.
    """
    from repro.workloads.background import BackgroundTrafficModel

    if scale <= 0:
        raise ValueError("scale must be positive")
    screen = screen or DEFAULT_GPU.screen
    if anim.frames == 1 and anim.churn == 0.0 and anim.jitter == 0.0:
        # Degenerate single-frame sequence: identical to the suite.
        base = build_workload(spec, scale=scale, screen=screen, order=order,
                              pbuffer=pbuffer)
        base.anim = anim
        return base

    generator = SceneGenerator(screen, scene_parameters(spec, scale, pbuffer))
    base_scene = generator.generate(0)

    # Persistent object state: base (untransformed) primitives grouped
    # by draw command.  Draw structure, primitive counts and dense IDs
    # never change across frames — churn replaces content in place.
    draws = list(base_scene.draw_commands)
    objects: list[list[Primitive]] = [
        base_scene.primitives[d.first_primitive:
                              d.first_primitive + d.primitive_count]
        for d in draws
    ]
    velocity, spins = _object_velocities(spec, anim, len(objects))
    moving = anim.jitter > 0.0

    scenes: list[Scene] = []
    for frame in range(anim.frames):
        if frame > 0:
            rng = _frame_rng(spec, anim, frame)
            # One churn draw per object, always consumed in object
            # order, so the stream is identical for every prefix.
            churn_draws = rng.random(len(objects))
            for index, base in enumerate(objects):
                if anim.churn > 0.0 and churn_draws[index] < anim.churn:
                    objects[index] = _respawn_object(base, generator, rng)
        camera = camera_transform(anim, frame, screen)
        if frame == 0:
            scenes.append(base_scene)
            continue
        primitives: list[Primitive] = []
        for index, base in enumerate(objects):
            if moving:
                drift = _object_transform(base, velocity[index],
                                          float(spins[index]), frame)
                staged = [drift.apply_primitive(prim) for prim in base]
            else:
                staged = base
            if camera is IDENTITY:
                # Static camera, no drift: share the base primitives so
                # dwell frames are bit-identical by construction.
                primitives.extend(staged)
            else:
                primitives.extend(camera.apply_primitive(prim)
                                  for prim in staged)
        scenes.append(Scene(screen, primitives, draws))

    background = BackgroundTrafficModel(spec, screen, scale=scale)
    return Workload(spec=spec, screen=screen, scale=scale, scenes=scenes,
                    background=background, order=order, pbuffer=pbuffer,
                    anim=anim)
