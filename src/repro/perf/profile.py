"""Per-stage timing of a cold run.

Usage::

    python -m repro.perf --benchmarks SoD GTr --scale 0.2
    python -m repro.perf --scale 0.2 --cprofile   # + top functions

For every benchmark the harness runs what a cold regeneration
(``tcor-experiments --all --no-disk-cache``) runs for it, in one
process and without stores, and times each stage:

- ``calibrate``: the scene generator's extent calibration, run cold:
  the process's calibration memo
  (:func:`~repro.geometry.generator.calibrated_extent`) is cleared
  first;
- ``generate``: frame 0's scene generation;
- ``lower``: the frame's binning and its numpy lowering into the replay
  IR (:func:`~repro.replay.ir.lower_frame`; no Tiling Engine runs);
- ``background``: the background stream the compile adds
  (:meth:`~repro.workloads.background.BackgroundTrafficModel.tile_stream`
  and ``primitive_stream``);
- ``replay``: one replayed simulation per suite config, the six cells
  of the experiment job matrix;
- ``curves``: the miss curves of Figures 1 and 11-13 and the lookahead
  experiment, over the profile derived from the compiled trace.

It prints a fixed-width table per benchmark with totals, and the
replay time per config.  ``--cprofile`` profiles every stage and prints
the top functions by cumulative time.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import time
from contextlib import contextmanager
from typing import Iterator

from repro.api import simulate
from repro.config import DEFAULT_GPU
from repro.experiments import (
    fig01_intro_gap,
    fig11_lower_bound,
    fig12_associativity,
    fig13_policies,
    lookahead_gap,
)
from repro.geometry.generator import SceneGenerator, calibrated_extent
from repro.parallel.engine import EXPERIMENT_VARIANTS, enumerate_jobs
from repro.replay import compile_workload
from repro.workloads.background import BackgroundTrafficModel
from repro.workloads.suite import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    Workload,
    WorkloadProfile,
    scene_parameters,
)

STAGES = ("calibrate", "generate", "lower", "background", "replay",
          "curves")
_CURVE_FIGURES = (fig01_intro_gap, fig11_lower_bound, fig12_associativity,
                  fig13_policies, lookahead_gap)


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


class _OneProfile:
    """The slice of the experiment provider the miss-curve figures
    read, holding one benchmark's profile."""

    def __init__(self, profile: WorkloadProfile) -> None:
        self.scale = profile.scale
        self.aliases = (profile.spec.alias,)
        self._profile = profile

    def profile(self, alias: str) -> WorkloadProfile:
        return self._profile

    def profiles(self) -> list[WorkloadProfile]:
        return [self._profile]


def _config_label(job) -> str:
    return f"{job.kind}@{job.tile_cache_bytes // 1024}KiB"


def profile_benchmark(alias: str, scale: float = 0.2) -> dict[str, float]:
    """Seconds per stage (plus ``replay:<config>`` per config) of one
    benchmark's cold run."""
    spec = BENCHMARKS[alias]
    screen = DEFAULT_GPU.screen
    timer = PhaseTimer()
    calibrated_extent.cache_clear()
    with timer.phase("calibrate"):
        generator = SceneGenerator(screen, scene_parameters(spec, scale))
    with timer.phase("generate"):
        scene = generator.generate(0)
    background = BackgroundTrafficModel(spec, screen, scale=scale)
    workload = Workload(spec=spec, screen=screen, scale=scale,
                        scenes=[scene], background=background)
    # Attribute the compile's background streams to their own stage.
    for name in ("tile_stream", "primitive_stream"):
        method = getattr(background, name)

        def timed(*args, _method=method, **kwargs):
            with timer.phase("background"):
                return _method(*args, **kwargs)

        setattr(background, name, timed)
    with timer.phase("compile"):
        workload.compiled_trace = compile_workload(workload)
    for job in enumerate_jobs(EXPERIMENT_VARIANTS, (alias,)):
        with timer.phase(f"replay:{_config_label(job)}"):
            simulate(workload, job.config, engine="replay")
    with timer.phase("curves"):
        provider = _OneProfile(WorkloadProfile.from_trace(
            workload.compiled_trace, spec, screen, scale))
        for figure in _CURVE_FIGURES:
            figure.run(scale=scale, cache=provider)
    seconds = dict(timer.seconds)
    seconds["lower"] = seconds.pop("compile") - seconds["background"]
    seconds["replay"] = sum(value for name, value in seconds.items()
                            if name.startswith("replay:"))
    return seconds


def profile_suite(aliases: tuple[str, ...] | None = None,
                  scale: float = 0.2,
                  profiler: cProfile.Profile | None = None) -> list[dict]:
    """:func:`profile_benchmark` per benchmark, one row each (with its
    ``alias``); ``profiler``, when given, is enabled throughout."""
    rows = []
    for alias in aliases or BENCHMARK_ORDER:
        if profiler is not None:
            profiler.enable()
        try:
            seconds = profile_benchmark(alias, scale)
        finally:
            if profiler is not None:
                profiler.disable()
        rows.append({"alias": alias, **seconds})
    return rows


def _table(headers: list[str], body: list[list[str]]) -> list[str]:
    widths = [max(len(row[col]) for row in [headers] + body)
              for col in range(len(headers))]
    lines = ["  ".join(cell.rjust(width)
                       for cell, width in zip(headers, widths)),
             "  ".join("-" * width for width in widths)]
    lines.extend("  ".join(cell.rjust(width)
                           for cell, width in zip(row, widths))
                 for row in body)
    return lines


def format_breakdown(rows: list[dict]) -> str:
    """Per-benchmark stage table with a totals row, then the replay
    seconds per config summed over the benchmarks."""
    totals = {stage: sum(row[stage] for row in rows) for stage in STAGES}
    body = [[row["alias"]] + [f"{row[stage]:.3f}" for stage in STAGES]
            + [f"{sum(row[stage] for stage in STAGES):.3f}"]
            for row in rows]
    body.append(["total"] + [f"{totals[stage]:.3f}" for stage in STAGES]
                + [f"{sum(totals.values()):.3f}"])
    lines = ["== cold-run stage breakdown (seconds) =="]
    lines += _table(["bench", *STAGES, "total"], body)
    configs = [name for name in rows[0] if name.startswith("replay:")] \
        if rows else []
    lines.append("")
    lines.append("== replay by config (seconds, all benchmarks) ==")
    lines += _table(["config", "replay"], [
        [name.split(":", 1)[1], f"{sum(row[name] for row in rows):.3f}"]
        for name in configs])
    return "\n".join(lines)


def _top_functions(profiler: cProfile.Profile, limit: int = 20) -> str:
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(limit)
    return stream.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-stage timing of a cold TCOR regeneration")
    parser.add_argument("--benchmarks", nargs="+", default=None,
                        choices=BENCHMARK_ORDER, metavar="ALIAS",
                        help="benchmark aliases (default: all 10)")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="geometry scale (1.0 = paper scale)")
    parser.add_argument("--cprofile", action="store_true",
                        help="also cProfile every stage")
    args = parser.parse_args(argv)

    aliases = tuple(args.benchmarks) if args.benchmarks else None
    profiler = cProfile.Profile() if args.cprofile else None
    rows = profile_suite(aliases=aliases, scale=args.scale,
                         profiler=profiler)
    print(format_breakdown(rows))
    print(f"[scale {args.scale}]")
    if profiler is not None:
        print(_top_functions(profiler))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
