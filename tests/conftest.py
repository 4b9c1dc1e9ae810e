"""Shared fixtures: small screens and reduced-scale workloads.

Full-scale (paper-sized) simulations live in benchmarks/; tests use
small geometry so the whole suite stays fast while exercising every
code path.
"""

from __future__ import annotations

import pytest

from repro import envvars
from repro.config import ScreenConfig
from repro.geometry.primitives import Primitive, Vertex
from repro.workloads.suite import BENCHMARKS, build_workload


@pytest.fixture(autouse=True)
def private_result_store(tmp_path, monkeypatch):
    """Point the default result store (and the subprocesses a test
    starts) at the test's own directory, so no test reads records an
    earlier run left in the checkout's ``.repro-cache/`` or leaves
    records there."""
    monkeypatch.setenv(envvars.CACHE_DIR, str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def small_screen() -> ScreenConfig:
    """An 8x4 = 32-tile screen: big enough for traversal structure,
    small enough for exhaustive checks."""
    return ScreenConfig(width=256, height=128, tile_size=32)


@pytest.fixture(scope="session")
def paper_screen() -> ScreenConfig:
    """The Table I screen (1960x768, 32x32 tiles)."""
    return ScreenConfig()


@pytest.fixture(scope="session")
def tiny_workload():
    """A reduced CCS workload shared by integration tests."""
    return build_workload(BENCHMARKS["CCS"], scale=0.08)


@pytest.fixture(scope="session")
def tiny_workload_low_reuse():
    """A reduced DDS workload (low reuse, large footprint profile)."""
    return build_workload(BENCHMARKS["DDS"], scale=0.04)


def make_triangle(prim_id: int, x: float, y: float, size: float = 20.0,
                  num_attributes: int = 3) -> Primitive:
    """A right triangle with legs ``size`` anchored at (x, y)."""
    return Primitive(
        prim_id,
        Vertex(x, y),
        Vertex(x + size, y),
        Vertex(x, y + size),
        num_attributes=num_attributes,
    )
