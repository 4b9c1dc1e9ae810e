"""Figure 11: LRU, OPT and the miss lower bound, fully associative L1.

Paper shape: OPT reaches the lower bound around 55 KiB; LRU needs about
375 KiB — a ~6.8x capacity advantage for OPT.
"""

from __future__ import annotations

from repro.analysis.miss_curves import suite_miss_curve
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    SimulationCache,
)

SIZES_KIB = [16, 32, 48, 64, 96, 128, 160, 224, 288, 352, 416, 480]
_TOLERANCE = 0.005  # "reaches" the bound: within half a miss-ratio point


def saturation_size(sizes: list[int], ratios: list[float],
                    bounds: list[float], tolerance: float = _TOLERANCE) -> int | None:
    """Smallest size whose miss ratio is within ``tolerance`` of the bound."""
    for size, ratio, bound in zip(sizes, ratios, bounds):
        if ratio - bound <= tolerance:
            return size
    return None


def run(scale: float = DEFAULT_SCALE,
        cache: SimulationCache | None = None,
        sizes_kib: list[int] | None = None) -> ExperimentResult:
    cache = cache or SimulationCache(scale=scale)
    sizes = sizes_kib or SIZES_KIB
    profiles = cache.profiles()
    lru = suite_miss_curve(profiles, sizes, "lru", include_lower_bound=True)
    opt = suite_miss_curve(profiles, sizes, "belady")
    rows = [
        [size, bound, lru_ratio, opt_ratio]
        for size, bound, lru_ratio, opt_ratio
        in zip(sizes, lru["lower_bound"], lru["miss_ratio"],
               opt["miss_ratio"])
    ]
    opt_at = saturation_size(sizes, opt["miss_ratio"], lru["lower_bound"])
    lru_at = saturation_size(sizes, lru["miss_ratio"], lru["lower_bound"])
    if opt_at and lru_at:
        advantage = f"OPT saturates at {opt_at} KiB vs LRU at {lru_at} KiB " \
                    f"({lru_at / opt_at:.1f}x smaller; paper: 6.8x)"
    else:
        advantage = "one policy did not reach the bound in the swept range"
    return ExperimentResult(
        exp_id="fig11",
        title="Lower bound vs LRU vs OPT, fully associative L1",
        headers=["size_kib", "lower_bound", "lru_miss_ratio",
                 "opt_miss_ratio"],
        rows=rows,
        notes=advantage,
    )
