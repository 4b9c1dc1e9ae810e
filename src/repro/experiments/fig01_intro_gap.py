"""Figure 1: LRU vs OPT miss ratio, fully associative L1, growing size.

Paper shape: OPT's miss ratio drops much faster than LRU's as the cache
grows (0.66 -> 0.42 band over 8-160 KB, OPT strictly below LRU).
"""

from __future__ import annotations

from repro.analysis.miss_curves import suite_miss_curve
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    SimulationCache,
)

SIZES_KIB = [8, 16, 24, 32, 48, 64, 96, 128, 160]


def run(scale: float = DEFAULT_SCALE,
        cache: SimulationCache | None = None,
        sizes_kib: list[int] | None = None) -> ExperimentResult:
    cache = cache or SimulationCache(scale=scale)
    sizes = sizes_kib or SIZES_KIB
    profiles = cache.profiles()
    lru = suite_miss_curve(profiles, sizes, "lru")
    opt = suite_miss_curve(profiles, sizes, "belady")
    rows = [
        [size, lru_ratio, opt_ratio]
        for size, lru_ratio, opt_ratio
        in zip(sizes, lru["miss_ratio"], opt["miss_ratio"])
    ]
    return ExperimentResult(
        exp_id="fig01",
        title="LRU vs OPT miss ratio, fully associative L1 (suite average)",
        headers=["size_kib", "lru_miss_ratio", "opt_miss_ratio"],
        rows=rows,
        notes="paper: OPT strictly below LRU, both monotonically falling",
    )
