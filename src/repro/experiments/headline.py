"""The abstract's four headline numbers in one table.

Paper: "a 13.8% decrease in the memory hierarchy energy consumption and
an increased throughput in the Tiling Engine [~5x].  We also observe a
5.5% decrease in the total GPU energy and a 3.7% increase in frames per
second (FPS)."  (Averages over both Tile Cache sizes.)
"""

from __future__ import annotations

from repro.energy import EnergyModel, gpu_energy
from repro.experiments.common import (
    DEFAULT_SCALE,
    TILE_CACHE_SIZES,
    ExperimentResult,
    SimulationCache,
)
from repro.timing.fps import fps_gain

PAPER = {
    "memory hierarchy energy decrease (%)": 13.8,
    "total GPU energy decrease (%)": 5.5,
    "FPS increase (%)": 3.7,
    "Tiling Engine speedup (x)": 5.0,
}


def run(scale: float = DEFAULT_SCALE,
        cache: SimulationCache | None = None) -> ExperimentResult:
    cache = cache or SimulationCache(scale=scale)
    model = EnergyModel.default()
    memhier, gpu_total, fps, speedups = [], [], [], []
    for alias in cache.aliases:
        profile = cache.profile(alias)
        for size in TILE_CACHE_SIZES.values():
            base = cache.baseline(alias, size)
            tcor = cache.tcor(alias, size)
            base_energy = gpu_energy(base, profile, model)
            tcor_energy = gpu_energy(tcor, profile, model)
            memhier.append(100 * (1 - tcor_energy.memory_hierarchy_nj
                                  / base_energy.memory_hierarchy_nj))
            gpu_total.append(100 * (1 - tcor_energy.total_gpu_nj
                                    / base_energy.total_gpu_nj))
            fps.append(100 * fps_gain(base, tcor, profile))
            base_ppc = cache.fetch_throughput(alias, "baseline", size)
            tcor_ppc = cache.fetch_throughput(alias, "tcor", size)
            speedups.append(tcor_ppc.primitives_per_cycle
                            / max(1e-9, base_ppc.primitives_per_cycle))

    def avg(values):
        return round(sum(values) / len(values), 1)

    rows = [
        ["memory hierarchy energy decrease (%)", avg(memhier),
         PAPER["memory hierarchy energy decrease (%)"]],
        ["total GPU energy decrease (%)", avg(gpu_total),
         PAPER["total GPU energy decrease (%)"]],
        ["FPS increase (%)", avg(fps), PAPER["FPS increase (%)"]],
        ["Tiling Engine speedup (x)", avg(speedups),
         PAPER["Tiling Engine speedup (x)"]],
    ]
    return ExperimentResult(
        exp_id="headline",
        title="Abstract headline numbers (suite x both Tile Cache sizes)",
        headers=["metric", "measured", "paper"],
        rows=rows,
        notes="averages over the 10 benchmarks at 64 KiB and 128 KiB",
    )
