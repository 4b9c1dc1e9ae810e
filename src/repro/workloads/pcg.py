"""numpy's ``default_rng((*prefix, id))`` rebuilt for many ids at once.

The background traffic model seeds one generator per tile and per
primitive, ``np.random.default_rng((seed, kind, id))``, so that every
entity's accesses are stateless and reproducible.  Constructing tens of
thousands of ``Generator`` objects costs far more than the handful of
draws each one makes, so this module reproduces the same streams over
arrays of ids, in numpy:

- :func:`seeded_states` is ``SeedSequence``'s entropy hash (one 32-bit
  word per entropy int, a pool of four words) followed by PCG64's
  seeding: ``generate_state(4, uint64)`` gives the 128-bit initial
  state and stream, and ``pcg_setseq_128_srandom_r`` steps them in.
- :func:`raw_words` steps the 128-bit LCG and applies the XSL-RR output
  function, one 64-bit word per step, as ``bit_generator.random_raw``.
- :func:`uniform` is ``Generator.random()`` from one word.
- :func:`lemire` is ``Generator.integers(0, bound)`` (int64, bound
  below 2**32) from one 32-bit half, with a flag where Lemire's method
  would reject the draw and take another half.

Callers send a flagged id, or an input outside what is covered here
(an entropy int of 2**32 or more, which ``SeedSequence`` splits into
several words), through numpy itself.  The streams are numpy's, not a
documented contract, so tests/test_background_rebuild.py ties this
module to the installed numpy by comparing it with ``default_rng`` draw
for draw.
"""

from __future__ import annotations

import numpy as np

_U32 = np.uint32
_U64 = np.uint64
MASK32 = 0xFFFF_FFFF
MASK64 = (1 << 64) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves.
_MULT_HI = 0x2360ED051FC65DA4
_MULT_LO = 0x4385DF649FCCF645

_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def covered(entropy: int) -> bool:
    """Whether ``SeedSequence`` reads ``entropy`` as one 32-bit word."""
    return 0 <= entropy <= MASK32


class _HashConst:
    """The running multiplier of ``SeedSequence``'s ``hashmix``: it
    depends only on how many words were hashed, never on their values,
    so it is tracked as a Python int and broadcast."""

    def __init__(self, value: int, mult: int) -> None:
        self.value = value
        self.mult = mult

    def mix(self, words: np.ndarray) -> np.ndarray:
        words = words ^ _U32(self.value)
        self.value = (self.value * self.mult) & MASK32
        words = words * _U32(self.value)
        return words ^ (words >> _U32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _U32(_MIX_MULT_L) - y * _U32(_MIX_MULT_R)
    return result ^ (result >> _U32(16))


def _pool(prefix: tuple[int, ...], ids: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence((*prefix, id)).pool`` for every id."""
    count = len(ids)
    entropy = [np.full(count, word, dtype=_U32) for word in prefix]
    entropy.append(ids.astype(_U32))
    hash_a = _HashConst(_INIT_A, _MULT_A)
    zeros = np.zeros(count, dtype=_U32)
    mixer = [hash_a.mix(entropy[i] if i < len(entropy) else zeros)
             for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixer[dst] = _mix(mixer[dst], hash_a.mix(mixer[src]))
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixer[dst] = _mix(mixer[dst], hash_a.mix(extra))
    return mixer


def _mul_lo(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit product of uint64 ``a`` and the constant ``b``, as
    (high, low) uint64 halves, from 32-bit limbs."""
    a0 = a & _U64(MASK32)
    a1 = a >> _U64(32)
    b0 = _U64(b & MASK32)
    b1 = _U64(b >> 32)
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _U64(MASK32)) + (p10 & _U64(MASK32))
    low = (p00 & _U64(MASK32)) | (mid << _U64(32))
    high = (a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32))
            + (mid >> _U64(32)))
    return high, low


def _add(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    low = a_lo + b_lo
    return a_hi + b_hi + (low < b_lo).astype(_U64), low


def _step(state, inc):
    """One LCG step: ``state * MULT + inc`` modulo 2**128."""
    hi, lo = state
    prod_hi, prod_lo = _mul_lo(lo, _MULT_LO)
    prod_hi = prod_hi + lo * _U64(_MULT_HI) + hi * _U64(_MULT_LO)
    return _add(prod_hi, prod_lo, *inc)


def seeded_states(prefix: tuple[int, ...], ids: np.ndarray):
    """``(state, inc)`` of ``PCG64(SeedSequence((*prefix, id)))`` for
    every id, each a (high, low) pair of uint64 arrays.

    Every int of ``prefix`` and ``ids`` must be :func:`covered`.
    """
    hash_b = _HashConst(_INIT_B, _MULT_B)
    pool = _pool(prefix, ids)
    halves = [hash_b.mix(pool[i % _POOL_SIZE]).astype(_U64)
              for i in range(2 * _POOL_SIZE)]
    s0, s1, s2, s3 = (halves[2 * j] | (halves[2 * j + 1] << _U64(32))
                      for j in range(_POOL_SIZE))
    # pcg_setseq_128_srandom_r(initstate = s0:s1, initseq = s2:s3).
    inc = ((s2 << _U64(1)) | (s3 >> _U64(63)), (s3 << _U64(1)) | _U64(1))
    state = _add(*inc, s0, s1)
    return _step(state, inc), inc


def raw_words(state, inc, count: int) -> np.ndarray:
    """The next ``count`` 64-bit outputs of every generator, shape
    ``(ids, count)``."""
    hi, lo = state
    out = np.empty((len(lo), count), dtype=_U64)
    for column in range(count):
        hi, lo = _step((hi, lo), inc)
        word = hi ^ lo
        rot = hi >> _U64(58)
        out[:, column] = (word >> rot) | (word << ((_U64(64) - rot)
                                                   & _U64(63)))
    return out


def uniform(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` from one 64-bit word each."""
    return (words >> _U64(11)).astype(np.float64) * _DOUBLE_UNIT


def lemire(halves: np.ndarray, bound: int):
    """``Generator.integers(0, bound)`` from one 32-bit half each
    (``2 <= bound < 2**32``).  Returns ``(values, rejected)``: where
    ``rejected`` is set, numpy would discard the half and draw again."""
    scaled = halves.astype(_U64) * _U64(bound)
    threshold = (MASK32 + 1 - bound) % bound
    return (scaled >> _U64(32)).astype(np.int64), \
        (scaled & _U64(MASK32)) < _U64(threshold)
