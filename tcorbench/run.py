"""Benchmark runner for the TCOR reproduction.

    python3 tcorbench/run.py --workload serve-distinct --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  It sets the workload up several times
and reports the median set-up time, then runs ops for ``--seconds``
(at least one), checks every op's outputs against the committed
``BASELINE_METRICS.json`` and ``expected.json`` and prints, as its last
line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the layer spans
are installed before a single set-up and the metrics are the per-layer
ones.  A traced run also prints its op_p50_ms next to the last untraced
run's in the same checkout, the spans' own cost, and the share of op
time that no layer's self time covers.

``--self-test`` runs one op against a copy of the golden with one
``sim.*`` count changed by 1 and exits 0 only if that op fails.
``--write-expected`` recomputes ``expected.json`` on this tree.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def host_probe_ms() -> float:
    """A fixed pure-Python loop, so that a run taken in a slow spell of
    the host can be recognised; the median of three, in ms."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1000.0)
    return sorted(times)[1]


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest nearest-rank percentile with at least ten ops beyond
    it, or the slowest op when there are 20 ops or fewer (that
    percentile would then lie below the median); returns the value and
    its 1-based rank."""
    ordered = sorted(latencies)
    rank = len(ordered) if len(ordered) <= 20 else len(ordered) - 10
    return ordered[rank - 1], rank


def run_ops(workload, seconds: float, windows: list | None,
            between=None) -> tuple[list, list, list]:
    """Whole rounds of ops until ``seconds`` have passed (at least one
    round).  Returns latencies, simulations per op and failures; appends
    each op's ``perf_counter_ns`` window to ``windows`` when given, and
    calls ``between()`` after each round but the last."""
    latencies, sims, failures = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index % workload.ops_per_round or index == 0 \
            or time.perf_counter() < deadline:
        if workload.max_ops is not None and index >= workload.max_ops:
            break
        if between is not None and index \
                and index % workload.ops_per_round == 0:
            between()
        start = time.perf_counter_ns()
        try:
            latency, done, failure = workload.op(index)
        except Exception as exc:  # an op that raises is a failed op
            latency = (time.perf_counter_ns() - start) / 1e9
            done, failure = 0, f"{type(exc).__name__}: {exc}"
        if windows is not None:
            windows.append((start, time.perf_counter_ns()))
        latencies.append(latency)
        sims.append(done)
        if failure is not None:
            failures.append(f"op {index}: {failure}")
        index += 1
    return latencies, sims, failures


def untraced(workload, seconds: float) -> tuple[dict, dict, list]:
    # Set-ups are timed before, between and after the rounds of ops, so
    # that their median does not rest on one spell of the host.
    setup_times = [workload.startup()
                   for _ in range(workload.startups_before)]
    workload.setup()
    latencies, sims, failures = run_ops(
        workload, seconds, None,
        lambda: setup_times.append(workload.startup()))
    workload.close()
    setup_times += [workload.startup()
                    for _ in range(workload.startups_after)]
    peak = workload.peak_rss_mb()
    value, rank = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "op_tail_ms": (value * 1000.0, "ms"),
        "sims_per_s": (sum(sims) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    diagnostics = {
        "setup_s_each": [round(t, 4) for t in setup_times],
        "op_ms": [round(latency * 1000.0) for latency in latencies],
        "ops": len(latencies),
        "tail": ("slowest op" if rank == len(latencies) else
                 f"p{100.0 * rank / len(latencies):.0f}"),
        "tail_rank": rank,
    }
    return metrics, diagnostics, failures


def traced(workload, seconds: float, work: str,
           untraced_p50: float | None) -> tuple[dict, dict, list]:
    import spans

    spans_dir = os.path.join(work, "spans")
    os.makedirs(spans_dir)
    workload.trace(spans_dir)
    workload.setup()
    windows: list = []
    latencies, _, failures = run_ops(workload, seconds, windows)
    serve = workload.serve_metrics(len(latencies))
    workload.close()
    by_op = spans.assign_ops(spans.collect(spans_dir), windows)
    driver = {index: (workload.driver_pid(index), end - start)
              for index, (start, end) in enumerate(windows)}
    layers, unattributed = spans.layer_metrics(by_op, driver, serve)
    traced_p50 = statistics.median(latencies) * 1000.0
    spans_per_op = sum(map(len, by_op.values())) / len(latencies)
    cost_ns = spans.span_cost_ns()
    diagnostics = {
        "ops": len(latencies),
        "traced_op_p50_ms": round(traced_p50, 3),
        "untraced_op_p50_ms": untraced_p50,
        "tracing_overhead": (f"{traced_p50 / untraced_p50 - 1.0:+.2%}"
                             if untraced_p50 else "no untraced run yet"),
        # The host's noise swamps the comparison above; this is the
        # spans' own cost, measured on a wrapped no-op.
        "spans_per_op": round(spans_per_op, 1),
        "span_cost_ns": round(cost_ns, 1),
        "span_cost_share": f"{spans_per_op * cost_ns / 1e6 / traced_p50:.4%}",
        "unattributed_share": f"{unattributed:.2%}",
    }
    metrics = {name: (layers[name], unit)
               for name, unit in spans.metric_units()}
    return metrics, diagnostics, failures


def self_test(name: str, golden: dict, work: str, seed: int) -> int:
    """One op against a golden with one ``sim.*`` count changed by 1."""
    from workloads import FIGURES_ALIASES, WORKLOADS, golden_prefix, \
        serve_rounds

    # serve-distinct serves this config as op ``index``; figures-cold
    # checks it in every op, sweep-warm all 60.
    index, config = next(
        (index, config) for index, config in enumerate(serve_rounds(seed))
        if len(config) == 3 and config[0] in FIGURES_ALIASES)
    key = f"{golden_prefix(*config)}.l2_accesses"
    broken = dict(golden)
    broken[key] += 1
    workload = WORKLOADS[name](ROOT, work, broken, seed)
    try:
        workload.setup()
        _, _, failure = workload.op(index)
    finally:
        workload.close()
    print(f"self-test {name}: changed {key} by 1 -> "
          f"{failure or 'op passed'}")
    return 0 if failure else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("figures-cold", "sweep-warm",
                                 "serve-distinct"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-expected", action="store_true",
                        help="recompute expected.json on this tree")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_expected:
        parser.error("--workload is required")

    golden_path = os.path.join(ROOT, "BASELINE_METRICS.json")
    if not (os.path.isdir(os.path.join(SRC, "repro"))
            and os.path.isfile(golden_path)):
        print(f"error: {ROOT} is not a checkout of the repository "
              "(src/repro and BASELINE_METRICS.json are needed)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    compileall.compile_dir(SRC, quiet=1)
    from workloads import WORKLOADS, load_golden

    work = os.path.join(ROOT, ".bench_work",
                        f"{os.getpid()}-{args.workload}")
    os.makedirs(work)
    try:
        if args.write_expected:
            from workloads import EXPECTED_PATH, write_expected

            expected = write_expected(ROOT, work)
            with open(EXPECTED_PATH, "w") as handle:
                json.dump(expected, handle, indent=1, sort_keys=True)
                handle.write("\n")
            return 0
        golden = load_golden(ROOT)
        if args.self_test:
            return self_test(args.workload, golden, work, args.seed)
        probe_before = host_probe_ms()
        workload = WORKLOADS[args.workload](ROOT, work, golden, args.seed)
        # The last untraced op_p50_ms of each workload in this checkout,
        # which a traced run compares its own against.
        last_path = os.path.join(ROOT, ".bench_work", "untraced_p50.json")
        last = {}
        if os.path.exists(last_path):
            with open(last_path) as handle:
                last = json.load(handle)
        try:
            if args.trace:
                metrics, diagnostics, failures = traced(
                    workload, args.seconds, work, last.get(args.workload))
            else:
                metrics, diagnostics, failures = untraced(workload,
                                                          args.seconds)
                last[args.workload] = round(metrics["op_p50_ms"][0], 3)
                with open(last_path, "w") as handle:
                    json.dump(last, handle)
        finally:
            workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    diagnostics.update({
        "workload": args.workload, "seed": args.seed,
        "golden_values_checked": workload.checked,
        "host_probe_ms": [round(probe_before, 2), round(host_probe_ms(), 2)],
        "failures": failures[:5],
        "setup_failure": workload.setup_failure,
    })
    print("diagnostics " + json.dumps(diagnostics))
    if args.trace and metrics["tcor.live.calls"][0] > 0:
        print("error: the traced run reached the live engine "
              f"({metrics['tcor.live.calls'][0]} calls per op); its "
              "trace measures a different program", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures and workload.setup_failure is None,
        "attempted": diagnostics["ops"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
