"""The miss engine against its oracle, and the paper's inequalities.

:mod:`repro.analysis.miss_engine` counts the misses of LRU, OPT, MRU
and DRRIP for Figures 1 and 11-13 and the lookahead experiment;
:func:`~repro.analysis.miss_curves.policy_miss_ratio` (a
``SetAssociativeCache`` driven by the policy object) is its oracle.
They must agree on every cell the figures draw and on generated
streams.  The properties then state what Section V-A of the paper
relies on, over generated Attribute Cache streams run through the
engine: OPT never misses more than LRU, no policy beats the lower
bound, and fully associative LRU and OPT never miss more in a larger
cache.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.analysis.lower_bound import lower_bound_misses, primitives_capacity
from repro.analysis.miss_curves import policy_miss_ratio, suite_miss_curve
from repro.analysis.miss_engine import (
    ENGINE_POLICIES,
    cache_geometry,
    miss_count,
)
from repro.caches.policies.belady import next_use_table
from repro.experiments import (
    fig01_intro_gap,
    fig11_lower_bound,
    fig12_associativity,
    fig13_policies,
    lookahead_gap,
)
from repro.workloads.suite import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    WorkloadProfile,
    build_workload,
)

SCALE = 0.2
ASSOCIATIVITIES = (1, 2, 3, 4, 8, None)


@pytest.fixture(scope="module")
def suite_profiles():
    return [WorkloadProfile.of(build_workload(BENCHMARKS[alias], scale=SCALE))
            for alias in BENCHMARK_ORDER]


def _figure_cells() -> set[tuple]:
    """``(size_kib, associativity, policy, kwargs)`` of every curve
    point Figures 1 and 11-13 draw through ``suite_miss_curve``."""
    drrip = (("m_bits", 2),)
    cells = set()
    for sizes, assocs, policies in (
            (fig01_intro_gap.SIZES_KIB, [None], ["lru", "belady"]),
            (fig11_lower_bound.SIZES_KIB, [None], ["lru", "belady"]),
            (fig12_associativity.SIZES_KIB,
             fig12_associativity.ASSOCIATIVITIES, ["lru", "belady"]),
            (fig13_policies.SIZES_KIB, [fig13_policies.ASSOCIATIVITY],
             ["lru", "mru", "drrip", "belady"])):
        for size in sizes:
            for assoc in assocs:
                for policy in policies:
                    cells.add((size, assoc, policy,
                               drrip if policy == "drrip" else ()))
    return cells


def test_engine_equals_the_oracle_on_every_figure_cell(suite_profiles):
    cells = sorted(_figure_cells(), key=repr)
    for profile in suite_profiles:
        trace = profile.attribute_stream
        next_use = next_use_table(trace)
        for size, assoc, policy, kwargs in cells:
            capacity = primitives_capacity(size * 1024,
                                           profile.mean_attributes)
            extra = {"next_use": next_use} if policy == "belady" else {}
            misses = miss_count(trace, capacity, policy, assoc,
                                **dict(kwargs), **extra)
            assert misses / len(trace) == policy_miss_ratio(
                trace, capacity, policy, assoc, **dict(kwargs)), \
                (profile.spec.alias, size, assoc, policy)
        # The lookahead experiment's fully associative LRU and OPT.
        capacity = primitives_capacity(
            int(lookahead_gap.CACHE_KIB * 1024 * SCALE) or 1024,
            profile.mean_attributes)
        for policy in ("lru", "belady"):
            assert miss_count(trace, capacity, policy) / len(trace) == \
                policy_miss_ratio(trace, capacity, policy)


def test_suite_miss_curve_routes_engine_policies(suite_profiles,
                                                 monkeypatch):
    """The engine's policies never reach the oracle; SHiP still does."""
    from repro.analysis import miss_curves

    calls = []
    oracle = miss_curves.policy_miss_ratio

    def counted(*args, **kwargs):
        calls.append(args[2])
        return oracle(*args, **kwargs)

    monkeypatch.setattr(miss_curves, "policy_miss_ratio", counted)
    profiles = suite_profiles[:2]
    for policy in sorted(ENGINE_POLICIES):
        suite_miss_curve(profiles, [32, 64], policy, associativity=4)
    assert calls == []
    suite_miss_curve(profiles, [32], "ship", associativity=4)
    assert calls == ["ship"] * len(profiles)


# ----------------------------------------------------------------------
# Generated streams
# ----------------------------------------------------------------------
traces = st.lists(st.integers(min_value=0, max_value=40), max_size=300)
geometries = st.tuples(st.integers(min_value=1, max_value=48),
                       st.sampled_from(ASSOCIATIVITIES))
drrip_kwargs = st.fixed_dictionaries({
    "m_bits": st.integers(1, 3),
    "psel_bits": st.integers(1, 10),
    "dueling_period": st.sampled_from([1, 2, 3, 4, 32]),
    "long_every": st.integers(1, 32),
})


@settings(max_examples=150, deadline=None)
@given(trace=traces, geometry=geometries,
       policy=st.sampled_from(sorted(ENGINE_POLICIES)),
       drrip=drrip_kwargs)
@example(trace=[], geometry=(4, None), policy="belady", drrip={})
@example(trace=[3, 3, 3], geometry=(1, 1), policy="mru", drrip={})
# Twelve sets, so the BRRIP leader (set 16 at period 32) never exists.
@example(trace=list(range(30)) * 2, geometry=(48, 4), policy="drrip",
         drrip={"m_bits": 2, "psel_bits": 1, "dueling_period": 32,
                "long_every": 1})
def test_engine_equals_the_oracle(trace, geometry, policy, drrip):
    capacity, assoc = geometry
    kwargs = drrip if policy == "drrip" else {}
    misses = miss_count(trace, capacity, policy, assoc, **kwargs)
    expected = policy_miss_ratio(trace, capacity, policy, assoc, **kwargs)
    assert (misses / len(trace) if trace else 0.0) == expected


@st.composite
def primitive_streams(draw) -> tuple[int, list[int]]:
    """An Attribute Cache stream: one write per primitive in binning
    order, then one read per (tile, primitive) pair in traversal order.
    Every primitive covers at least one tile."""
    primitives = draw(st.integers(1, 40))
    tiles = draw(st.integers(1, 10))
    cover = [draw(st.sets(st.integers(0, tiles - 1), min_size=1))
             for _ in range(primitives)]
    order = draw(st.permutations(range(tiles)))
    reads = [pid for tile in order for pid in range(primitives)
             if tile in cover[pid]]
    return primitives, list(range(primitives)) + reads


@settings(max_examples=100, deadline=None)
@given(stream=primitive_streams(), geometry=geometries)
@example(stream=(1, [0, 0]), geometry=(1, 1))
@example(stream=(3, [0, 1, 2, 2, 1, 0, 0, 1, 2]), geometry=(2, None))
def test_opt_between_the_lower_bound_and_lru(stream, geometry):
    """Fig. 11's bound (every write misses, and every primitive not
    resident after binning misses on its first read) <= OPT <= LRU, at
    every geometry."""
    primitives, trace = stream
    capacity, assoc = geometry
    opt = miss_count(trace, capacity, "belady", assoc)
    lru = miss_count(trace, capacity, "lru", assoc)
    num_sets, ways = cache_geometry(capacity, assoc)
    assert lower_bound_misses(primitives, num_sets * ways) <= opt <= lru
    assert opt >= len(set(trace))


@settings(max_examples=100, deadline=None)
@given(stream=primitive_streams())
@example(stream=(2, [0, 1, 1, 0, 1]))
def test_fully_associative_curves_never_rise(stream):
    primitives, trace = stream
    next_use = next_use_table(trace)
    for policy, kwargs in (("lru", {}), ("belady", {"next_use": next_use})):
        misses = [miss_count(trace, capacity, policy, **kwargs)
                  for capacity in range(1, primitives + 3)]
        assert all(a >= b for a, b in zip(misses, misses[1:])), policy
        assert misses[-1] == len(set(trace))
