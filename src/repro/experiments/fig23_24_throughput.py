"""Figures 23/24: primitives output per cycle by the Tile Fetcher.

Paper shape: TCOR speeds the Tiling Engine up ~5x on average (4.7x at
64 KiB, 5.0x at 128 KiB); SoD comes closest to the 1-primitive/cycle
ceiling.
"""

from __future__ import annotations

from repro.experiments.common import (
    DEFAULT_SCALE,
    TILE_CACHE_SIZES,
    ExperimentResult,
    SimulationCache,
)

PAPER_SPEEDUP = {
    "64KiB": {"CCS": 3.8, "SoD": 4.3, "TRu": 5.0, "SWa": 3.6, "CRa": 5.2,
              "RoK": 3.5, "DDS": 3.5, "Snp": 9.6, "Mze": 5.7, "GTr": 3.0,
              "average": 4.7},
    "128KiB": {"CCS": 3.8, "SoD": 3.7, "TRu": 4.7, "SWa": 3.6, "CRa": 5.1,
               "RoK": 3.5, "DDS": 3.9, "Snp": 8.4, "Mze": 6.8, "GTr": 2.0,
               "average": 5.0},
}


def run_one(size_label: str, scale: float = DEFAULT_SCALE,
            cache: SimulationCache | None = None) -> ExperimentResult:
    cache = cache or SimulationCache(scale=scale)
    size = TILE_CACHE_SIZES[size_label]
    rows = []
    speedups = []
    for alias in cache.aliases:
        base = cache.fetch_throughput(alias, "baseline", size)
        tcor = cache.fetch_throughput(alias, "tcor", size)
        speedup = (tcor.primitives_per_cycle
                   / max(1e-9, base.primitives_per_cycle))
        speedups.append(speedup)
        rows.append([
            alias, round(base.primitives_per_cycle, 3),
            round(tcor.primitives_per_cycle, 3), round(speedup, 1),
            PAPER_SPEEDUP[size_label][alias],
        ])
    rows.append(["average", "", "",
                 round(sum(speedups) / len(speedups), 1),
                 PAPER_SPEEDUP[size_label]["average"]])
    fig = "fig23" if size_label == "64KiB" else "fig24"
    return ExperimentResult(
        exp_id=fig,
        title=f"Tile Fetcher primitives per cycle ({size_label} Tile Cache)",
        headers=["bench", "baseline_ppc", "tcor_ppc", "speedup_x",
                 "paper_speedup_x"],
        rows=rows,
        notes="unlimited output queue: the Raster Pipeline never stalls "
              "the Tiling Engine",
    )


def run(scale: float = DEFAULT_SCALE,
        cache: SimulationCache | None = None) -> list[ExperimentResult]:
    cache = cache or SimulationCache(scale=scale)
    return [run_one("64KiB", scale, cache), run_one("128KiB", scale, cache)]
