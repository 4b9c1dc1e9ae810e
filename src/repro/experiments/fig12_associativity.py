"""Figure 12: LRU and OPT miss ratios across set associativities.

Paper shape: for every size, OPT's curves collapse to the lower bound at
far lower associativity than LRU — 2-way OPT roughly matches fully
associative LRU.
"""

from __future__ import annotations

from repro.analysis.miss_curves import suite_miss_curve
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    SimulationCache,
)

SIZES_KIB = [16, 32, 48, 64, 96, 128, 160]
ASSOCIATIVITIES: list[int | None] = [1, 2, 4, 8, None]  # None = fully assoc


def _label(assoc: int | None) -> str:
    return "full" if assoc is None else f"{assoc}way"


def run(scale: float = DEFAULT_SCALE,
        cache: SimulationCache | None = None,
        sizes_kib: list[int] | None = None,
        associativities: list[int | None] | None = None) -> ExperimentResult:
    cache = cache or SimulationCache(scale=scale)
    sizes = sizes_kib or SIZES_KIB
    assocs = ASSOCIATIVITIES if associativities is None else associativities
    profiles = cache.profiles()

    curves: dict[str, list[float]] = {}
    bound: list[float] = []
    for policy in ("lru", "belady"):
        for assoc in assocs:
            include_bound = policy == "lru" and assoc == assocs[0]
            curve = suite_miss_curve(profiles, sizes, policy,
                                     associativity=assoc,
                                     include_lower_bound=include_bound)
            curves[f"{policy}_{_label(assoc)}"] = curve["miss_ratio"]
            if include_bound:
                bound = curve["lower_bound"]

    headers = ["size_kib", "lower_bound"] + list(curves)
    rows = [
        [size, bound[index]] + [curves[name][index] for name in curves]
        for index, size in enumerate(sizes)
    ]
    return ExperimentResult(
        exp_id="fig12",
        title="Associativity sweep: LRU vs OPT vs lower bound",
        headers=headers,
        rows=rows,
        notes="paper: OPT at 2-way is about as good as fully assoc. LRU",
    )
