"""Experiment CLI: regenerate every table and figure of the paper.

Usage::

    tcor-experiments --all                    # everything, paper scale
    tcor-experiments --experiment fig14 fig16 # a subset
    tcor-experiments --all --scale 0.25       # fast reduced-scale pass
    tcor-experiments --all --jobs 8           # parallel simulation fan-out
    tcor-experiments --all --output results.txt
    tcor-experiments --experiment fig10 --trace fig10.jsonl
    tcor-experiments --all --scale 0.2 --metrics-out metrics.json

Simulation results persist in a content-addressed on-disk cache
(``.repro-cache/`` or ``$REPRO_CACHE_DIR``; disable with
``--no-disk-cache``), so repeat invocations skip re-simulation; any
edit to the simulator sources invalidates the cache automatically.

Simulations run through the compiled-trace replay engine by default:
each workload is lowered once to an access-trace IR and replayed
through fast kernels for every configuration, bit-identically to the
live simulator (``REPRO_NO_REPLAY=1`` forces the live path; traced runs
use it automatically).  Compiled traces persist alongside results
(``$REPRO_TRACE_CACHE_BYTES`` caps the store).

``--metrics-out`` writes a ``tcor-metrics`` JSON dump of every counter
the run produced (``sim.*`` per-simulation results — aggregated across
parallel workers — and ``table.*`` numeric table cells); the committed
baseline of that dump is what ``tcor-metrics diff`` gates CI against.
``--trace`` additionally records the structured event stream to JSONL
(forces ``--jobs 1`` and disables the disk cache, since a cache hit or
a pool worker would leave no events to trace in this process).
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from contextlib import nullcontext

from repro.experiments import common
from repro.experiments import (
    fig01_intro_gap,
    fig10_example,
    headline,
    fig11_lower_bound,
    fig12_associativity,
    fig13_policies,
    fig14_15_l2_accesses,
    fig16_17_mm_pb,
    fig18_19_mm_total,
    fig20_21_energy,
    fig22_gpu_energy,
    fig23_24_throughput,
    fig_re,
    lookahead_gap,
    sensitivity,
    tables,
)
from repro.experiments.common import ExperimentResult, SimulationProvider
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    TileSummarySink,
    Tracer,
    activation,
    tile_heatmap,
    write_metrics,
)

_MODULES = {
    "tables": tables,
    "headline": headline,
    "fig01": fig01_intro_gap,
    "fig10": fig10_example,
    "fig11": fig11_lower_bound,
    "fig12": fig12_associativity,
    "fig13": fig13_policies,
    "fig14": fig14_15_l2_accesses,
    "fig16": fig16_17_mm_pb,
    "fig18": fig18_19_mm_total,
    "fig20": fig20_21_energy,
    "fig22": fig22_gpu_energy,
    "fig23": fig23_24_throughput,
    "fig_re": fig_re,
    "sensitivity": sensitivity,
    "lookahead": lookahead_gap,
}

# Paired figures resolve to the same module.
_ALIASES = {"fig15": "fig14", "fig17": "fig16", "fig19": "fig18",
            "fig21": "fig20", "fig24": "fig23", "table1": "tables",
            "table2": "tables"}


def resolve_names(names: list[str]) -> list[str]:
    """Canonical, deduplicated experiment keys (fig15 -> fig14, ...)."""
    resolved: list[str] = []
    seen: set[str] = set()
    for name in names:
        key = _ALIASES.get(name, name)
        if key in seen:
            continue
        if key not in _MODULES:
            raise ValueError(
                f"unknown experiment {name!r}; choose from "
                f"{sorted(set(_MODULES) | set(_ALIASES))}"
            )
        seen.add(key)
        resolved.append(key)
    return resolved


_METRIC_NAME_RE = re.compile(r"[^0-9A-Za-z_-]+")


def _table_metric_component(text) -> str:
    return _METRIC_NAME_RE.sub("_", str(text))


def export_table_metrics(registry: MetricsRegistry,
                         results: list[ExperimentResult]) -> int:
    """Every numeric table cell as a ``table.<exp>.rNN.<header>`` gauge.

    This covers experiments whose numbers never pass through the
    simulation memo table (policy sweeps, lower bounds, energy roll-ups)
    so the regression gate sees the full reported surface.
    """
    exported = 0
    for result in results:
        exp = _table_metric_component(result.exp_id)
        for row_index, row in enumerate(result.rows):
            for header, cell in zip(result.headers, row):
                if isinstance(cell, bool) or not isinstance(cell,
                                                            (int, float)):
                    continue
                registry.gauge(
                    f"table.{exp}.r{row_index:02d}."
                    f"{_table_metric_component(header)}",
                    cell,
                )
                exported += 1
    return exported


def run_experiments(names: list[str], scale: float,
                    aliases: tuple[str, ...] | None = None,
                    jobs: int = 1, disk=None,
                    cache: SimulationProvider | None = None,
                    registry: MetricsRegistry | None = None
                    ) -> list[ExperimentResult]:
    """Run the named experiments, fanning simulations out over ``jobs``
    worker processes (1 = fully serial) with ``disk`` as a persistent
    result store (None = in-memory only).  Parallel runs produce the
    same tables as serial ones: every simulation is an independent,
    seeded job and results are merged under deterministic keys.

    ``registry``, when given, receives the run's metrics: every
    memoized simulation as ``sim.*`` gauges (identical whether it ran
    serially, in a pool worker, replayed, or loaded from disk) and
    every numeric table cell as ``table.*``.
    """
    resolved = resolve_names(names)
    alias_key = tuple(aliases) if aliases else common.BENCHMARK_ORDER
    cached_tables: dict[str, list[ExperimentResult]] = {}
    if disk is not None:
        for key in resolved:
            hit = disk.get_tables(key, scale, alias_key)
            if hit is not None:
                cached_tables[key] = hit
    pending = [key for key in resolved if key not in cached_tables]
    if cache is None:
        from repro.parallel import ParallelSimulationCache

        cache = ParallelSimulationCache(scale=scale, aliases=aliases,
                                        jobs=jobs, disk=disk)
    if pending:
        cache.prefetch(pending)
    results: list[ExperimentResult] = []
    for key in resolved:
        if key in cached_tables:
            results.extend(cached_tables[key])
            continue
        outcome = _MODULES[key].run(scale=scale, cache=cache)
        tables_out = ([outcome] if isinstance(outcome, ExperimentResult)
                      else list(outcome))
        if disk is not None:
            disk.put_tables(key, scale, alias_key, tables_out)
        results.extend(tables_out)
    if registry is not None:
        cache.export_metrics(registry)
        export_table_metrics(registry, results)
    return results


def _trace_heatmaps(summary: TileSummarySink, max_caches: int = 4) -> str:
    """Per-tile access heatmaps for the traced caches (``--plot``)."""
    blocks = []
    for cache in sorted(summary.summary()):
        cells = summary.summary()[cache]
        if not any(tile is not None for tile in cells):
            continue
        try:
            blocks.append(tile_heatmap(summary, cache))
        except ValueError:
            continue
        if len(blocks) >= max_caches:
            break
    return "\n\n".join(blocks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the TCOR paper's tables and figures")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--experiment", nargs="+", default=[],
                        help="experiment ids (fig01, fig11, ..., tables)")
    parser.add_argument("--scale", type=float, default=common.DEFAULT_SCALE,
                        help="geometry scale (1.0 = paper scale)")
    parser.add_argument("--benchmarks", nargs="+", default=None,
                        help="benchmark aliases to include (default: all 10)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation fan-out "
                             "(1 = serial; results are identical either way)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="do not read or write the persistent "
                             "simulation cache")
    parser.add_argument("--cache-dir", default=None,
                        help="simulation cache directory (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--output", default=None,
                        help="also write the report to this file")
    parser.add_argument("--plot", action="store_true",
                        help="render curve figures as ASCII charts too")
    parser.add_argument("--markdown", default=None,
                        help="also write a markdown report to this file")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record the structured event trace to this "
                             "JSONL file (forces --jobs 1 and disables the "
                             "disk cache so every event is observable)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a tcor-metrics JSON dump of every "
                             "counter the run produced")
    args = parser.parse_args(argv)

    names = list(_MODULES) if args.all else args.experiment
    if not names:
        parser.error("pass --all or --experiment ...")
    aliases = tuple(args.benchmarks) if args.benchmarks else None

    jobs = args.jobs
    disk = None
    if args.trace:
        jobs = 1
    elif not args.no_disk_cache:
        from repro.parallel import DiskCache
        disk = DiskCache(args.cache_dir)

    registry = (MetricsRegistry()
                if args.metrics_out or args.trace else None)
    tracer = None
    summary = None
    if args.trace:
        summary = TileSummarySink()
        tracer = Tracer(sinks=[JsonlSink(args.trace), summary],
                        registry=registry)

    started = time.time()
    scope = activation(tracer) if tracer is not None else nullcontext()
    with scope:
        results = run_experiments(names, scale=args.scale, aliases=aliases,
                                  jobs=jobs, disk=disk, registry=registry)
    if tracer is not None:
        tracer.close()
    blocks = []
    for result in results:
        block = common.format_table(result)
        if args.plot and result.headers[0] == "size_kib":
            from repro.analysis.ascii_plot import chart_from_result
            try:
                block += "\n" + chart_from_result(result, "size_kib",
                                                   width=56, height=14,
                                                   x_label="KiB")
            except ValueError:
                pass
        blocks.append(block)
    if args.plot and summary is not None:
        heatmaps = _trace_heatmaps(summary)
        if heatmaps:
            blocks.append(heatmaps)
    report = "\n\n".join(blocks)
    cache_note = disk.stats_line() if disk is not None else "disk cache: off"
    footer = (f"\n\n[{len(results)} experiment tables in "
              f"{time.time() - started:.1f}s at scale {args.scale}, "
              f"jobs {jobs}; {cache_note}]")
    if tracer is not None:
        footer += (f"\n[trace: {tracer.events_emitted} events -> "
                   f"{args.trace}]")
    print(report + footer)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + footer + "\n")
    if args.markdown:
        from repro.experiments.reporting import report_to_markdown
        with open(args.markdown, "w") as handle:
            handle.write(report_to_markdown(results) + "\n")
    if args.metrics_out and registry is not None:
        write_metrics(args.metrics_out, registry.snapshot(),
                      meta={"scale": args.scale,
                            "experiments": resolve_names(names),
                            "benchmarks": list(aliases or
                                               common.BENCHMARK_ORDER),
                            "traced": bool(args.trace)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
