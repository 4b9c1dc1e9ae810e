"""Tables I and II.

Table I is the machine description (configuration, no simulation).
Table II compares each synthetic benchmark's *measured* characteristics
against the paper's published values — the calibration check for the
whole workload substitution.
"""

from __future__ import annotations

from repro.config import DEFAULT_GPU
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    SimulationCache,
)
from repro.workloads.suite import BENCHMARKS

MIB = 1024 * 1024


def run_table1() -> ExperimentResult:
    gpu = DEFAULT_GPU
    rows = [
        ["tech", f"{gpu.frequency_hz // 1_000_000}MHz, "
                 f"{gpu.voltage_v:g}V, {gpu.technology_nm}nm"],
        ["screen", f"{gpu.screen.width}x{gpu.screen.height}"],
        ["tile", f"{gpu.screen.tile_size}x{gpu.screen.tile_size} "
                 f"({gpu.screen.num_tiles} tiles)"],
        ["traversal", "Z-order"],
        ["main memory", f"{gpu.memory.min_latency_cycles}-"
                        f"{gpu.memory.max_latency_cycles} cycles, "
                        f"{gpu.memory.size_bytes // MIB} MiB"],
        ["vertex cache", _cache_row(gpu.vertex_cache)],
        ["texture caches",
         f"{gpu.num_texture_caches}x {_cache_row(gpu.texture_cache)}"],
        ["tile cache", _cache_row(gpu.tile_cache)],
        ["l2 cache", _cache_row(gpu.l2_cache)],
    ]
    return ExperimentResult(
        exp_id="table1",
        title="GPU simulation parameters",
        headers=["parameter", "value"],
        rows=rows,
    )


def _cache_row(config) -> str:
    return (f"{config.line_bytes}B/line, {config.size_bytes // 1024}KiB, "
            f"{config.associativity}-way, {config.latency_cycles} cycle(s)")


def run_table2(scale: float = DEFAULT_SCALE,
               cache: SimulationCache | None = None) -> ExperimentResult:
    cache = cache or SimulationCache(scale=scale)
    rows = []
    for alias in cache.aliases:
        spec = BENCHMARKS[alias]
        profile = cache.profile(alias)
        rows.append([
            alias, spec.genre, "2D" if spec.is_2d else "3D",
            spec.installs_millions,
            spec.pb_footprint_mib,
            round(profile.footprint_bytes / MIB / scale, 2),
            spec.avg_reuse,
            round(profile.reuse, 2),
            profile.num_primitives,
        ])
    return ExperimentResult(
        exp_id="table2",
        title="Benchmark suite: published vs measured characteristics",
        headers=["bench", "genre", "type", "installs_M",
                 "paper_pb_mib", "measured_pb_mib",
                 "paper_reuse", "measured_reuse", "primitives"],
        rows=rows,
        notes="measured footprint is scale-normalized back to paper scale",
    )


def run(scale: float = DEFAULT_SCALE,
        cache: SimulationCache | None = None) -> list[ExperimentResult]:
    return [run_table1(), run_table2(scale, cache)]
