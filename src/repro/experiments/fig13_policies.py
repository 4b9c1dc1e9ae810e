"""Figure 13: LRU vs MRU vs DRRIP (M=2) vs OPT in a 4-way L1.

Paper shape: MRU worst, DRRIP slightly above or equal to LRU (no benefit
on this stream), OPT quickly falls to the lower bound.
"""

from __future__ import annotations

from repro.analysis.miss_curves import suite_miss_curve
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    SimulationCache,
)

SIZES_KIB = [32, 48, 64, 96, 128, 160]
ASSOCIATIVITY = 4


def run(scale: float = DEFAULT_SCALE,
        cache: SimulationCache | None = None,
        sizes_kib: list[int] | None = None,
        extended: bool = False) -> ExperimentResult:
    """The paper's four policies; ``extended=True`` adds SHiP and Hawkeye
    (related-work predictors the paper cites but does not plot)."""
    cache = cache or SimulationCache(scale=scale)
    sizes = sizes_kib or SIZES_KIB
    profiles = cache.profiles()

    lru = suite_miss_curve(profiles, sizes, "lru",
                           associativity=ASSOCIATIVITY,
                           include_lower_bound=True)
    mru = suite_miss_curve(profiles, sizes, "mru",
                           associativity=ASSOCIATIVITY)
    drrip = suite_miss_curve(profiles, sizes, "drrip",
                             associativity=ASSOCIATIVITY, m_bits=2)
    opt = suite_miss_curve(profiles, sizes, "belady",
                           associativity=ASSOCIATIVITY)
    extras = {}
    if extended:
        extras["ship"] = suite_miss_curve(profiles, sizes, "ship",
                                          associativity=ASSOCIATIVITY)
        extras["hawkeye"] = suite_miss_curve(profiles, sizes, "hawkeye",
                                             associativity=ASSOCIATIVITY)
    rows = [
        [size, lru["lower_bound"][i], mru["miss_ratio"][i],
         drrip["miss_ratio"][i], lru["miss_ratio"][i]]
        + [extras[name]["miss_ratio"][i] for name in extras]
        + [opt["miss_ratio"][i]]
        for i, size in enumerate(sizes)
    ]
    headers = (["size_kib", "lower_bound", "mru", "drrip_m2", "lru"]
               + list(extras) + ["opt"])
    return ExperimentResult(
        exp_id="fig13",
        title="Replacement policies in a 4-way L1 (suite average)",
        headers=headers,
        rows=rows,
        notes="paper: MRU > DRRIP >= LRU > OPT ~ lower bound"
              + ("; SHiP/Hawkeye are our related-work additions"
                 if extended else ""),
    )
