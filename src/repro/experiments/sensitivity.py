"""Sensitivity studies beyond the paper's figures.

Three sweeps the paper's design section motivates but does not plot:

- **Traversal order** — OPT Numbers are ranks *in the traversal*, so the
  mechanism works under any fixed order; this quantifies how much the
  order itself matters.
- **Tile Cache split** — the paper fixes 16 KiB lists + 48 KiB
  attributes; this sweeps the split at a constant 64 KiB budget.
- **L2 size** — the dead-line L2's PB elimination depends on the PB
  fitting; this sweeps the L2 against a large-footprint benchmark.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import DEFAULT_GPU, CacheConfig, TCORConfig
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    SimulationCache,
)
from repro.api import SimulationConfig, WorkloadSource, simulate
from repro.geometry.traversal import TraversalOrder
from repro.workloads.suite import BENCHMARKS, build_workload

KIB = 1024


def _sim(workload, **config_kwargs):
    """One simulation through the public facade (``workload`` is a
    built workload or a :class:`WorkloadSource`) — replay-eligible
    (every sweep here stays inside the kernels' geometry envelope),
    with the live simulator as automatic fallback."""
    return simulate(workload, SimulationConfig(**config_kwargs)).result


def _source(alias: str, scale: float,
            cache: SimulationCache | None) -> WorkloadSource:
    """The provider's source for ``alias`` (its trace may come from the
    store, so the sweep builds nothing), else a fresh build."""
    if cache is not None:
        return cache.source(alias)
    return WorkloadSource.of(build_workload(BENCHMARKS[alias], scale=scale))


def run_traversal_orders(alias: str = "TRu", scale: float = DEFAULT_SCALE,
                         cache: SimulationCache | None = None) -> ExperimentResult:
    """TCOR effectiveness under each tile traversal order."""
    rows = []
    for order in TraversalOrder:
        workload = build_workload(BENCHMARKS[alias], scale=scale,
                                  order=order)
        base = _sim(workload, kind="baseline")
        tcor = _sim(workload)
        rows.append([
            order.value,
            round(tcor.attr_read_hit_ratio, 3),
            round(100 * (1 - tcor.pb_l2_accesses / base.pb_l2_accesses), 1),
            round(100 * (1 - tcor.mm_accesses / base.mm_accesses), 1),
        ])
    return ExperimentResult(
        exp_id="sens-traversal",
        title=f"Tile traversal order sensitivity ({alias})",
        headers=["order", "attr_hit_ratio", "pb_l2_decrease_%",
                 "mm_decrease_%"],
        rows=rows,
        notes="OPT Numbers adapt to any fixed order; differences come "
              "from the orders' spatial locality",
    )


def run_tile_cache_split(alias: str = "Snp", scale: float = DEFAULT_SCALE,
                         cache: SimulationCache | None = None) -> ExperimentResult:
    """Primitive-List vs Attribute budget split at a fixed 64 KiB."""
    source = _source(alias, scale, cache)
    base = _sim(source, kind="baseline")
    rows = []
    for pl_kib in (8, 16, 24, 32):
        attr_kib = 64 - pl_kib
        tcor_config = TCORConfig(
            primitive_list_cache=CacheConfig("primitive_list",
                                             pl_kib * KIB),
            attribute_buffer_bytes=attr_kib * KIB,
        )
        tcor = _sim(source, tcor=tcor_config)
        rows.append([
            f"{pl_kib}+{attr_kib}",
            round(tcor.attr_read_hit_ratio, 3),
            round(100 * (1 - tcor.pb_l2_accesses / base.pb_l2_accesses), 1),
        ])
    return ExperimentResult(
        exp_id="sens-split",
        title=f"Tile Cache split sweep at 64 KiB ({alias})",
        headers=["pl+attr_kib", "attr_hit_ratio", "pb_l2_decrease_%"],
        rows=rows,
        notes="the paper's 16+48 split; attributes benefit from capacity "
              "far more than the single-use lists",
    )


def run_l2_size(alias: str = "DDS", scale: float = DEFAULT_SCALE,
                cache: SimulationCache | None = None) -> ExperimentResult:
    """Dead-line L2 effectiveness vs L2 capacity (PB-spill behaviour)."""
    source = _source(alias, scale, cache)
    rows = []
    for l2_kib in (256, 512, 1024, 2048):
        gpu = replace(DEFAULT_GPU,
                      l2_cache=replace(DEFAULT_GPU.l2_cache,
                                       size_bytes=l2_kib * KIB))
        base = _sim(source, kind="baseline", gpu=gpu)
        tcor = _sim(source, gpu=gpu)
        elimination = 100 * (1 - tcor.pb_mm_accesses
                             / max(1, base.pb_mm_accesses))
        rows.append([l2_kib, base.pb_mm_accesses, tcor.pb_mm_accesses,
                     round(elimination, 1)])
    return ExperimentResult(
        exp_id="sens-l2",
        title=f"L2 capacity vs PB main-memory elimination ({alias})",
        headers=["l2_kib", "baseline_pb_mm", "tcor_pb_mm",
                 "elimination_%"],
        rows=rows,
        notes="elimination saturates once the live Parameter Buffer fits "
              "the L2 (paper: DDS at 1.8 MiB cannot fit a 1 MiB L2)",
    )


def run_hierarchical_lists(scale: float = DEFAULT_SCALE,
                           cache: SimulationCache | None = None) -> ExperimentResult:
    """PMD savings of Hsiao-style hierarchical lists across the suite.

    The related-work structure (paper Section VI) stores group-covering
    primitives once per 2x2 tile group; this measures what it would save
    each benchmark — and why the flat structure TCOR needs (one PMD per
    (tile, primitive), each with its own OPT Number) is still cheap.
    """
    from repro.pbuffer.hierarchical import HierarchicalLists

    cache = cache or SimulationCache(scale=scale)
    rows = []
    for alias in cache.aliases:
        workload = cache.workload(alias)
        lists = HierarchicalLists(workload.scenes[0])
        flat = lists.flat_pmds()
        rows.append([
            alias, flat, lists.total_pmds(),
            round(100 * lists.pmd_savings(), 1),
            round(workload.measured_reuse(), 2),
        ])
    return ExperimentResult(
        exp_id="sens-hierarchy",
        title="Hierarchical lists: PMD savings vs the flat structure",
        headers=["bench", "flat_pmds", "hier_pmds", "savings_%",
                 "avg_reuse"],
        rows=rows,
        notes="savings need primitives that fully cover 2x2 tile groups; "
              "per-PMD OPT Numbers (TCOR) require the flat structure",
    )


def run(scale: float = DEFAULT_SCALE,
        cache: SimulationCache | None = None) -> list[ExperimentResult]:
    return [
        run_traversal_orders(scale=scale, cache=cache),
        run_tile_cache_split(scale=scale, cache=cache),
        run_l2_size(scale=scale, cache=cache),
        run_hierarchical_lists(scale=scale, cache=cache),
    ]
