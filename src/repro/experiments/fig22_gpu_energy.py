"""Figure 22: decrease in total GPU energy.

Paper shape: 5.6% (64 KiB) and 5.3% (128 KiB) average decrease — the
memory-hierarchy saving diluted by the (unchanged) compute energy.
"""

from __future__ import annotations

from repro.energy import EnergyModel, gpu_energy
from repro.experiments.common import (
    DEFAULT_SCALE,
    TILE_CACHE_SIZES,
    ExperimentResult,
    SimulationCache,
)


def run(scale: float = DEFAULT_SCALE,
        cache: SimulationCache | None = None) -> ExperimentResult:
    cache = cache or SimulationCache(scale=scale)
    model = EnergyModel.default()
    rows = []
    averages = {label: [] for label in TILE_CACHE_SIZES}
    for alias in cache.aliases:
        profile = cache.profile(alias)
        row = [alias]
        for label, size in TILE_CACHE_SIZES.items():
            base = gpu_energy(cache.baseline(alias, size), profile, model)
            tcor = gpu_energy(cache.tcor(alias, size), profile, model)
            decrease = 100 * (1 - tcor.total_gpu_nj / base.total_gpu_nj)
            averages[label].append(decrease)
            row.append(round(decrease, 1))
        rows.append(row)
    rows.append(["average"] + [
        round(sum(values) / len(values), 1) for values in averages.values()
    ])
    return ExperimentResult(
        exp_id="fig22",
        title="Decrease in total GPU energy vs baseline",
        headers=["bench", "decrease_64KiB_%", "decrease_128KiB_%"],
        rows=rows,
        notes="paper averages: 5.6% (64 KiB) and 5.3% (128 KiB)",
    )
