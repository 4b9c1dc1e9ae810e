"""The rebuilt background stream equals the scalar generator.

:meth:`BackgroundTrafficModel.tile_stream` and
:meth:`~BackgroundTrafficModel.primitive_stream` reproduce numpy's
``default_rng((seed, kind, id))`` draws in array form
(:mod:`repro.workloads.pcg`).  Those streams are numpy's, not a
documented contract, so these tests tie the rebuild to the installed
numpy: every suite tile and primitive at three scales, generated
models (bounds of 1 and seeds past 32 bits included), the raw words
and draws themselves, and the fallback for a draw Lemire's method
rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import ScreenConfig
from repro.workloads import pcg
from repro.workloads.background import (
    BLOCK,
    BackgroundTrafficModel,
    _arrays_of,
)
from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS


def _assert_streams_equal(model: BackgroundTrafficModel,
                          num_primitives: int) -> None:
    tiles = range(model.screen.num_tiles)
    expected = _arrays_of([model.tile_accesses(tile) for tile in tiles])
    for name, got, want in zip(expected._fields, model.tile_stream(),
                               expected):
        assert got.dtype == want.dtype == np.int64, name
        np.testing.assert_array_equal(got, want, err_msg=f"tile {name}")
    expected = _arrays_of([model.primitive_accesses(pid)
                           for pid in range(num_primitives)])
    for name, got, want in zip(expected._fields,
                               model.primitive_stream(num_primitives),
                               expected):
        assert got.dtype == want.dtype == np.int64, name
        np.testing.assert_array_equal(got, want,
                                      err_msg=f"primitive {name}")


@pytest.mark.parametrize("scale", [0.2, 0.5, 1.0])
def test_every_suite_tile_and_primitive(paper_screen, scale):
    for alias in BENCHMARK_ORDER:
        spec = BENCHMARKS[alias]
        model = BackgroundTrafficModel(spec, paper_screen, scale=scale)
        # build_workload's primitive count at this scale.
        _assert_streams_equal(
            model, max(16, round(spec.num_primitives() * scale)))


@dataclass(frozen=True)
class _Spec:
    """The spec fields the background model reads."""

    texture_mib: float
    shader_insts_per_pixel: int
    seed: int


_specs = st.builds(
    _Spec,
    texture_mib=st.floats(0.0, 0.5, allow_nan=False),
    shader_insts_per_pixel=st.integers(1, 64),
    seed=st.one_of(st.integers(0, 2**32 - 1),
                   st.integers(2**32, 2**40)))
_screens = st.builds(ScreenConfig, width=st.integers(1, 300),
                     height=st.integers(1, 200),
                     tile_size=st.sampled_from([16, 32, 64]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=_specs, screen=_screens,
       scale=st.floats(0.001, 1.0, allow_nan=False),
       num_primitives=st.integers(0, 40))
# Hot set and window of one block each: integers(0, 1) draws nothing.
@example(spec=_Spec(0.0, 1, 7), screen=ScreenConfig(64, 64, 32),
         scale=0.01, num_primitives=3)
# A seed SeedSequence splits into two 32-bit words.
@example(spec=_Spec(0.25, 8, 2**32), screen=ScreenConfig(96, 64, 32),
         scale=0.5, num_primitives=5)
def test_generated_models(spec, screen, scale, num_primitives):
    model = BackgroundTrafficModel(spec, screen, scale=scale)
    _assert_streams_equal(model, num_primitives)


def test_raw_words_and_draws_match_numpy():
    ids = np.array([0, 1, 2, 1487, 2**32 - 1], dtype=np.int64)
    for prefix in ((0, 1), (102, 2), (2**32 - 1, 1)):
        words = pcg.raw_words(*pcg.seeded_states(prefix, ids), 6)
        for row, entity in zip(words, ids.tolist()):
            generator = np.random.default_rng((*prefix, entity))
            np.testing.assert_array_equal(
                row, generator.bit_generator.random_raw(6))
            generator = np.random.default_rng((*prefix, entity))
            assert pcg.uniform(row[:1])[0] == generator.random()


def test_lemire_flags_exactly_the_draws_numpy_rejects():
    """At ``2**31 + 1`` about half of all halves are rejected.  numpy
    answers an unflagged low half with its value; after a flagged one
    it takes the buffered high half instead."""
    bound = 2**31 + 1
    ids = np.arange(400, dtype=np.int64)
    words = pcg.raw_words(*pcg.seeded_states((9, 1), ids), 1)[:, 0]
    values, rejected = pcg.lemire(words & np.uint64(pcg.MASK32), bound)
    retry, retry_rejected = pcg.lemire(words >> np.uint64(32), bound)
    assert 100 < rejected.sum() < 300
    for entity in ids.tolist():
        drawn = int(np.random.default_rng((9, 1, entity)).integers(0, bound))
        if not rejected[entity]:
            assert drawn == values[entity]
        elif not retry_rejected[entity]:
            assert drawn == retry[entity]


def test_rejected_tiles_come_from_the_scalar_generator(monkeypatch):
    """A hot set whose Lemire draw often rejects sends some tiles
    through ``tile_accesses``; the stream stays equal."""
    screen = ScreenConfig(width=256, height=128, tile_size=32)
    model = BackgroundTrafficModel(_Spec(1.0, 8, 5), screen, scale=1.0)
    model.hot_bytes = (2**31 + 1) * BLOCK
    model.texture_accesses_per_tile = 8
    scalar_tiles = []
    reference = model.tile_accesses

    def counted(tile_id):
        scalar_tiles.append(tile_id)
        return reference(tile_id)

    monkeypatch.setattr(model, "tile_accesses", counted)
    stream = model.tile_stream()
    assert 0 < len(scalar_tiles) < screen.num_tiles
    scalar_tiles.clear()
    expected = _arrays_of([model.tile_accesses(tile)
                           for tile in range(screen.num_tiles)])
    for got, want in zip(stream, expected):
        np.testing.assert_array_equal(got, want)
