"""Layer spans for the traced run, recorded from outside the program.

``install()`` wraps each layer's public entry points.  A wrapper is put
in every loaded ``repro`` module that binds the entry point by name
(``build_workload`` alone is bound in ``workloads.suite``,
``experiments.common``, ``experiments.sensitivity``, ``parallel.engine``,
``serve.worker`` and ``anim.animate``), because patching only the
defining module would miss every caller that imported the name.

Each call records one span: name, start, end, parent span, process,
whether it ran on the process's main thread, and a small dict of
attributes.  Spans stay in memory.  A forked pool worker starts with an
empty buffer and appends its spans to ``<spans_dir>/<pid>.jsonl`` when
its batch entry point returns; the runner merges those files when the
run ends and assigns every span to the op whose time window holds its
start (``perf_counter_ns`` reads ``CLOCK_MONOTONIC``, which all
processes share).

No ``repro.obs`` tracer is installed: ``replay_allowed()`` would then
route every simulation to the live engine and the trace would measure
a different program.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

# Imported before patching, so that every module binding an entry
# point by name (the serve scheduler binds simulate_request_batch) is
# loaded when the bindings are replaced.
_MODULES = (
    "repro.api",
    "repro.anim",
    "repro.analysis.miss_curves",
    "repro.energy",
    "repro.experiments.driver",
    "repro.geometry.generator",
    "repro.parallel",
    "repro.replay",
    "repro.serve.client",
    "repro.serve.inprocess",
    "repro.serve.scheduler",
    "repro.serve.worker",
    "repro.timing",
    "repro.tiling.engine",
    "repro.workloads.suite",
)

# Experiment ids whose module ``run`` is spanned as ``experiments.<id>``.
EXPERIMENT_IDS = ("tables", "headline", "fig01", "fig10", "fig11", "fig12",
                  "fig13", "fig14", "fig16", "fig18", "fig20", "fig22",
                  "fig23", "fig_re", "sensitivity", "lookahead")

_state = {"spans": [], "dir": None, "pid": None}
_local = threading.local()
_ids = itertools.count(1)


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _after_fork() -> None:
    global _local
    _state["spans"] = []
    _local = threading.local()


def flush() -> None:
    """Append this process's spans to its file and clear the buffer."""
    spans = _state["spans"]
    if not spans or _state["dir"] is None:
        return
    path = os.path.join(_state["dir"], f"{os.getpid()}.jsonl")
    with open(path, "a") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    _state["spans"] = []


def _wrap(name, fn, attrs=None, flush_in_worker=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        pid = os.getpid()
        sid = pid << 32 | next(_ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            extra = attrs(args, kwargs) if attrs is not None else {}
            on_main = threading.current_thread() is threading.main_thread()
            _state["spans"].append(
                [sid, parent, name, start, end, pid, on_main, extra])
            if flush_in_worker and pid != _state["pid"]:
                flush()
    return wrapper


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _workload_id(workload) -> str:
    return f"{workload.spec.alias}@{workload.scale}/{workload.anim!r}"


def _calibrate_key(args, kwargs):
    return {"key": repr((args, sorted(kwargs.items())))}


def _build_key(args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    rest = [repr(a) for a in args[1:]] + sorted(
        f"{k}={v!r}" for k, v in kwargs.items())
    return {"key": f"{spec.alias}|{'|'.join(rest)}"}


def _fetcher_key(args, kwargs):
    rest = [repr(a) for a in args[1:]] + sorted(
        f"{k}={v!r}" for k, v in kwargs.items())
    return {"key": f"{_workload_id(args[0])}|{'|'.join(rest)}"}


def _accesses(args, kwargs):
    return {"accesses": _arg(args, kwargs, 0, "trace").num_accesses}


def _targets():
    """``(owner, attribute, span name, attrs, flush)`` per entry point."""
    from repro import api, energy, replay, tcor, timing
    from repro.analysis import miss_curves
    from repro.anim import animate
    from repro.experiments import driver
    from repro.geometry import generator
    from repro.parallel import engine, store
    from repro.serve import client, schema, worker
    from repro.tiling import engine as tiling_engine
    from repro.workloads import suite

    targets = [
        (generator, "calibrate_extent_for_reuse", "geometry.calibrate",
         _calibrate_key, False),
        (generator.SceneGenerator, "generate", "geometry.generate", None,
         False),
        (tiling_engine.TilingEngine, "trace", "tiling.bin", None, False),
        (suite, "build_workload", "workloads.build", _build_key, False),
        (animate, "build_animated_workload", "anim.build", _build_key,
         False),
        (replay.ir, "compile_workload", "replay.compile", None, False),
        (replay.ir, "save_trace", "replay.trace_io", None, False),
        (replay.ir, "load_trace", "replay.trace_io", None, False),
        (replay.kernels, "replay_baseline", "replay.kernel", _accesses,
         False),
        (replay.kernels, "replay_tcor", "replay.kernel", _accesses, False),
        (tcor.system, "simulate_baseline", "tcor.live", None, False),
        (tcor.system, "simulate_tcor", "tcor.live", None, False),
        (timing.tiling_timing, "tile_fetcher_throughput", "timing.fetcher",
         _fetcher_key, False),
        (miss_curves, "suite_miss_curve", "analysis.miss_curve", None,
         False),
        (miss_curves, "policy_miss_ratio", "analysis.miss_curve", None,
         False),
        (energy.accounting, "gpu_energy", "energy.gpu", None, False),
        (api, "simulate", "api.simulate", None, False),
        (store.DiskCache, "__init__", "store.init", None, False),
        (engine.ParallelSimulationCache, "prefetch", "pool.prefetch", None,
         False),
        (engine, "simulate_job_batch", "pool.batch", None, True),
        (client.ServeClient, "run", "serve.client", None, False),
        (worker, "simulate_request_batch", "serve.batch", None, True),
        (schema, "probe_disk_batch", "serve.disk", None, False),
        (schema, "store_disk_batch", "serve.disk", None, False),
    ]
    for method in ("get_baseline", "get_tcor", "get_trace", "get_tables"):
        targets.append((store.DiskCache, method, "store.probe", None, False))
    for method in ("put_baseline", "put_tcor", "put_trace", "put_tables"):
        targets.append((store.DiskCache, method, "store.put", None, False))
    for exp_id in EXPERIMENT_IDS:
        targets.append((driver._MODULES[exp_id], "run",
                        f"experiments.{exp_id}", None, False))
    return targets


def install(spans_dir: str) -> None:
    """Wrap every entry point in each place its callers look it up."""
    for name in _MODULES:
        importlib.import_module(name)
    _state["dir"] = spans_dir
    _state["pid"] = os.getpid()
    os.register_at_fork(after_in_child=_after_fork)
    for owner, attr, name, attrs, flushes in _targets():
        original = getattr(owner, attr)
        wrapper = _wrap(name, original, attrs, flushes)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def span_cost_ns(calls: int = 20000) -> float:
    """What one span adds to a call: a wrapped no-op minus a bare one."""
    def bare():
        return None

    wrapped = _wrap("cost", bare)
    saved, _state["spans"] = _state["spans"], []
    timings = []
    for fn in (bare, wrapped):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter_ns() - start)
    _state["spans"] = saved
    return (timings[1] - timings[0]) / calls


def collect(spans_dir: str) -> list:
    """This process's spans plus every worker file under ``spans_dir``."""
    spans = list(_state["spans"])
    _state["spans"] = []
    for entry in sorted(os.listdir(spans_dir)):
        if entry.endswith(".jsonl"):
            with open(os.path.join(spans_dir, entry)) as handle:
                spans.extend(json.loads(line) for line in handle)
    return spans


# -- per-layer metrics --------------------------------------------------

_SELF_LAYERS = (
    "geometry.calibrate", "geometry.generate", "tiling.bin",
    "workloads.build", "anim.build", "replay.compile", "replay.trace_io",
    "replay.kernel", "tcor.live", "timing.fetcher", "analysis.miss_curve",
    "energy.gpu", "api.simulate", "store.init", "store.probe", "store.put",
) + tuple(f"experiments.{exp_id}" for exp_id in EXPERIMENT_IDS)
_CALL_LAYERS = (
    "geometry.calibrate", "workloads.build", "anim.build", "replay.compile",
    "replay.kernel", "tcor.live", "timing.fetcher", "analysis.miss_curve",
    "api.simulate", "store.probe", "store.put",
)
_REDUNDANT_LAYERS = ("geometry.calibrate", "workloads.build",
                     "timing.fetcher")
SERVE_METRICS = ("serve.queue_ms", "serve.pool_ms", "serve.disk_ms",
                 "serve.wire_ms", "serve.batch_jobs_mean", "serve.coalesced",
                 "serve.retries")


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    units = []
    for layer in _SELF_LAYERS:
        if layer in _CALL_LAYERS:
            units.append((f"{layer}.calls", "count"))
        units.append((f"{layer}.s", "s"))
        if layer in _REDUNDANT_LAYERS:
            units.append((f"{layer}.redundant_frac", "ratio"))
        if layer == "replay.kernel":
            units.append(("replay.kernel.ns_per_access", "ns"))
    units += [("replay.fallback_frac", "ratio"), ("pool.batches", "count"),
              ("pool.busy_s", "s"), ("pool.wait_s", "s")]
    return units + [(name, "ms" if name.endswith("_ms") else "count")
                    for name in SERVE_METRICS]


def assign_ops(spans: list, windows: list) -> dict:
    """``{op index: [span, ...]}`` by the window holding each start."""
    by_op: dict[int, list] = {index: [] for index in range(len(windows))}
    for span in spans:
        for index, (start, end) in enumerate(windows):
            if start <= span[3] <= end:
                by_op[index].append(span)
                break
    return by_op


def layer_metrics(by_op: dict, driver: dict, serve: dict) -> tuple:
    """Per-op layer metrics and the op time no self time covers.

    ``driver`` maps op index to the pid whose main thread drove the op
    and the op's wall time in ns; self time on that thread is what the
    accounting covers (worker and server-thread spans overlap it).
    ``serve`` carries the serve-layer numbers the runner measured.
    Returns ``(metrics, unattributed share of op time)``.
    """
    ops = max(1, len(by_op))
    names = {span[0]: span[2] for spans in by_op.values() for span in spans}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    redundant: dict[str, int] = {}
    accesses = 0
    pool_busy = 0
    serve_pool = serve_disk = 0
    covered = wall = 0
    for index, spans in by_op.items():
        child_ns: dict[int, int] = {}
        for span in spans:
            if span[1] is not None:
                child_ns[span[1]] = child_ns.get(span[1], 0) \
                    + span[4] - span[3]
        seen: dict[str, set] = {}
        drive_pid, op_ns = driver[index]
        wall += op_ns
        for span in sorted(spans, key=lambda s: s[3]):
            sid, parent, name, start, end, pid, on_main, extra = span
            own = end - start - child_ns.get(sid, 0)
            self_ns[name] = self_ns.get(name, 0) + own
            if pid == drive_pid and on_main:
                covered += own
            if names.get(parent) != name:
                calls[name] = calls.get(name, 0) + 1
                key = extra.get("key")
                if key is not None:
                    keys = seen.setdefault(name, set())
                    if key in keys:
                        redundant[name] = redundant.get(name, 0) + 1
                    keys.add(key)
            accesses += extra.get("accesses", 0)
            if name == "pool.batch":
                pool_busy += end - start
            elif name == "serve.batch":
                serve_pool += end - start
            elif name == "serve.disk":
                serve_disk += end - start
    metrics: dict[str, float] = {}
    for layer in _SELF_LAYERS:
        if layer in _CALL_LAYERS:
            metrics[f"{layer}.calls"] = calls.get(layer, 0) / ops
        metrics[f"{layer}.s"] = self_ns.get(layer, 0) / 1e9 / ops
        if layer in _REDUNDANT_LAYERS:
            made = calls.get(layer, 0)
            metrics[f"{layer}.redundant_frac"] = (
                redundant.get(layer, 0) / made if made else 0.0)
        if layer == "replay.kernel":
            metrics["replay.kernel.ns_per_access"] = (
                self_ns.get(layer, 0) / accesses if accesses else 0.0)
    kernel = calls.get("replay.kernel", 0)
    live = calls.get("tcor.live", 0)
    metrics["replay.fallback_frac"] = (live / (kernel + live)
                                       if kernel + live else 0.0)
    metrics["pool.batches"] = calls.get("pool.batch", 0) / ops
    metrics["pool.busy_s"] = pool_busy / 1e9 / ops
    metrics["pool.wait_s"] = self_ns.get("pool.prefetch", 0) / 1e9 / ops
    metrics["serve.pool_ms"] = serve_pool / 1e6 / ops
    metrics["serve.disk_ms"] = serve_disk / 1e6 / ops
    for name in SERVE_METRICS:
        metrics.setdefault(name, 0.0)
    metrics.update(serve)
    unattributed = 1.0 - covered / wall if wall else 0.0
    return metrics, unattributed
