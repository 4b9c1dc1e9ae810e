"""The benchmark's workloads and their output checks.

Every workload draws from the same 60 simulations: the 10 suite
benchmarks x {baseline, tcor, tcor with ``l2_enhancements=False``} x
{64, 128 KiB} at scale 0.2, whose every ``SystemResult`` field is in the
committed ``BASELINE_METRICS.json`` under ``sim.*``.  What that golden
does not hold, the tables of figures-cold's two-benchmark regeneration
and the results of serve-distinct's animated requests, is in
``expected.json`` next to this file (written by ``run.py
--write-expected``).  A seed only reorders inputs, so every seed stays
checkable; seed 0 keeps the committed order.

A workload object has ``startup()`` (one timed set-up, in seconds),
``setup()`` (ready for ops), ``op(index)`` returning
``(latency_s, sims, failure or None)`` and ``close()``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import asdict

SCALE = 0.2
SIZES = (64 * 1024, 128 * 1024)
KINDS = ("baseline", "tcor", "tcor_no_l2")

# figures-cold regenerates these experiments for fig_re's pair of
# benchmarks: every layer the full matrix reaches except the animated
# builds (serve-distinct's animated requests cover those), in an op
# short enough that a run holds several.
FIGURES_ALIASES = ("SoD", "GTr")
FIGURES_EXPERIMENTS = ("tables", "headline", "fig10", "fig11", "fig14",
                       "fig16", "fig18", "fig20", "fig22")

# serve-distinct's animated request, one per round: fig_re's 4-frame,
# 50 %-churn orbit, TCOR at 64 KiB with Rendering Elimination on.  The
# round number is the animation seed, so no two requests share a key.
ANIM_ALIAS = "GTr"
ANIM_KIND = "tcor_re"
ANIM_SIZE = 64 * 1024

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_golden(root: str) -> dict:
    with open(os.path.join(root, "BASELINE_METRICS.json")) as handle:
        return json.load(handle)["metrics"]


def suite_configs() -> list[tuple[str, str, int]]:
    """``(alias, kind, bytes)`` for the 60 simulations, committed order."""
    from repro.workloads.suite import BENCHMARK_ORDER

    return [(alias, kind, size) for alias in BENCHMARK_ORDER
            for kind in KINDS for size in SIZES]


def seeded(items: list, seed: int, stream: int = 0) -> list:
    """``items`` in seed order: seed 0 is the committed order."""
    items = list(items)
    if seed:
        random.Random(f"{seed}/{stream}").shuffle(items)
    return items


def anim_spec(number: int):
    """The sequence of serve-distinct's animated request ``number``."""
    from repro.anim import AnimationSpec

    return AnimationSpec(frames=4, path="orbit", dwell=2, travel=2,
                         churn=0.5, seed=number)


def serve_rounds(seed: int) -> list[tuple]:
    """Six rounds of eleven requests: one of each benchmark's six
    configs, ``(alias, kind, bytes)``, and the animated request
    ``(ANIM_ALIAS, ANIM_KIND, ANIM_SIZE, n)`` of round n.

    A request's latency is mostly its workload build, which depends on
    the benchmark, so a run of whole rounds does the same work on every
    seed.  The seed picks which of a benchmark's six configs each round
    uses and the order of the requests within a round.
    """
    from repro.workloads.suite import BENCHMARK_ORDER

    per_alias = {alias: seeded([(alias, kind, size) for kind in KINDS
                                for size in SIZES], seed, index)
                 for index, alias in enumerate(BENCHMARK_ORDER)}
    requests = []
    for round_index in range(len(KINDS) * len(SIZES)):
        one_round = [per_alias[alias][round_index]
                     for alias in BENCHMARK_ORDER]
        one_round.append((ANIM_ALIAS, ANIM_KIND, ANIM_SIZE, round_index + 1))
        requests += seeded(one_round, seed, 100 + round_index)
    return requests


def simulation_config(kind: str, size: int):
    from repro.api import SimulationConfig

    return SimulationConfig(kind="baseline" if kind == "baseline" else "tcor",
                            tile_cache_bytes=size,
                            l2_enhancements=kind in ("tcor", ANIM_KIND),
                            rendering_elimination=(kind == ANIM_KIND))


def golden_prefix(alias: str, kind: str, size: int) -> str:
    """The ``sim.*`` namespace the experiment driver files this run under."""
    from repro.config import TCORConfig
    from repro.experiments.common import SimulationCache

    if kind == "baseline":
        key = SimulationCache.baseline_key(alias, size)
    else:
        key = SimulationCache.tcor_key(alias, size,
                                       TCORConfig.for_total_size(size),
                                       l2_enhancements=(kind == "tcor"))
    return SimulationCache.metric_prefix(key)


def load_expected() -> dict:
    if not os.path.exists(EXPECTED_PATH):
        raise FileNotFoundError(f"{EXPECTED_PATH} is missing; "
                                "run.py --write-expected writes it")
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def expected_fields(golden: dict, expected: dict | None,
                    request: tuple) -> dict:
    """The ``SystemResult`` fields ``request`` must reproduce."""
    if len(request) == 4:
        return expected["serve_anim"][str(request[3])]
    prefix = golden_prefix(*request) + "."
    fields = {name[len(prefix):]: value for name, value in golden.items()
              if name.startswith(prefix)}
    if not fields:
        raise ValueError(f"the golden has no {prefix}* values")
    return fields


def result_fields(result) -> dict:
    """Every numeric field of a ``SystemResult``, by dotted name."""
    from repro.obs.registry import flatten

    return {name[2:]: value
            for name, value in flatten(asdict(result), "x").items()}


def result_mismatch(result, expected: dict) -> str | None:
    """``None`` when every expected field of the ``SystemResult`` is
    equal.

    Fields the golden predates (``tiles_skipped`` and the other
    Rendering Elimination counters) are not compared, as in the CI diff.
    """
    got = result_fields(result)
    wrong = sorted(name for name, value in expected.items()
                   if got.get(name) != value)
    if not wrong:
        return None
    return f"{len(wrong)} fields differ from the expected, first {wrong[0]}"


# One timed set-up of each workload that runs its program in a fresh
# interpreter: start-up to ready, including imports and opening the
# store, so that work moved into start-up shows even when a process
# memoises it.  argv[1] is an empty store directory.
FIGURES_STARTUP = """
import sys, repro.experiments.driver
from repro.parallel import DiskCache
DiskCache(sys.argv[1])
"""
SERVE_STARTUP = """
import sys
from repro.parallel.store import DiskCache
from repro.serve.inprocess import InProcessServer
server = InProcessServer(jobs=2, disk=DiskCache(sys.argv[1]))
with server.client() as client:
    client.healthz()
print("ready", flush=True)
server.close()
"""


def timed_startup(code: str, env: dict, work: str) -> float:
    """Seconds from spawning ``code`` until it prints ``ready`` or exits."""
    store = os.path.join(work, "startup-store")
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code, store], env=env,
                             cwd=work, stdout=subprocess.PIPE, text=True)
    ready = child.stdout.readline()
    elapsed = time.perf_counter() - start
    child.stdout.read()
    child.stdout.close()
    if child.wait(timeout=120) != 0 or ready not in ("", "ready\n"):
        raise RuntimeError(f"start-up exited {child.returncode}: {ready!r}")
    shutil.rmtree(store, ignore_errors=True)
    return elapsed


class Workload:
    """Defaults the three workloads share."""

    ops_per_round = 1
    max_ops = None

    def __init__(self) -> None:
        self.checked = 0          # golden values compared so far
        self.setup_failure = None

    def driver_pid(self, index: int) -> int:
        """The process whose main thread drove op ``index``."""
        return os.getpid()

    def serve_metrics(self, ops: int) -> dict:
        return {}


class FiguresCold(Workload):
    """One op is one regeneration in a fresh interpreter against an
    empty store: ``FIGURES_EXPERIMENTS`` for ``FIGURES_ALIASES``, scale
    0.2, two pool workers, checked like CI checks it."""

    name = "figures-cold"
    startups_before = startups_after = 2

    def __init__(self, root: str, work: str, golden: dict,
                 seed: int) -> None:
        super().__init__()

        # A regeneration has no input a seed could reorder without
        # changing its output or its work: the benchmark order is the
        # tables' row order, and the experiment order decides which
        # workloads the parent holds at once.  Every seed runs this op.
        self.work = work
        configs = [config for config in suite_configs()
                   if config[0] in FIGURES_ALIASES]
        self.sims_per_op = len(configs)
        self.expected = load_expected()["figures_tables"]
        for config in configs:
            prefix = golden_prefix(*config) + "."
            self.expected.update({name: value
                                  for name, value in golden.items()
                                  if name.startswith(prefix)})
        self.traced_spans: str | None = None
        self.peak_rss_kib = 0
        self.pids: dict[int, int] = {}
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def startup(self) -> float:
        """A fresh interpreter imports the driver and opens a store."""
        return timed_startup(FIGURES_STARTUP, self.env, self.work)

    def setup(self) -> None:
        pass

    def command(self, store: str, dump: str) -> list[str]:
        args = ["--experiment", *FIGURES_EXPERIMENTS,
                "--benchmarks", *FIGURES_ALIASES,
                "--scale", str(SCALE), "--jobs", "2",
                "--cache-dir", store, "--metrics-out", dump]
        if self.traced_spans is None:
            return [sys.executable, "-m", "repro.experiments.driver", *args]
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "traced_child.py")
        return [sys.executable, child, self.traced_spans, *args]

    def op(self, index: int):
        from repro.obs.diff import diff_metrics

        store = os.path.join(self.work, f"store-{index}")
        dump = os.path.join(self.work, f"metrics-{index}.json")
        log_path = os.path.join(self.work, f"driver-{index}.log")
        with open(log_path, "w") as log:
            start = time.perf_counter()
            child = subprocess.Popen(self.command(store, dump), env=self.env,
                                     cwd=self.work, stdout=log,
                                     stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(child.pid, 0)
            latency = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        self.pids[index] = child.pid
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        shutil.rmtree(store, ignore_errors=True)
        if child.returncode != 0:
            with open(log_path) as log:
                tail = log.read().strip().splitlines()[-1:]
            return latency, 0, f"driver exited {child.returncode}: {tail}"
        with open(dump) as handle:
            current = json.load(handle)["metrics"]
        report = diff_metrics(self.expected, current)
        self.checked += report.compared
        if not report.clean:
            return latency, 0, report.describe().splitlines()[-1]
        return latency, self.sims_per_op, None

    def driver_pid(self, index: int) -> int:
        return self.pids[index]

    def trace(self, spans_dir: str) -> None:
        """Later ops run the driver under ``traced_child.py``."""
        self.traced_spans = spans_dir

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kib / 1024.0

    def close(self) -> None:
        pass


class SweepWarm(Workload):
    """One op is one sweep of the 60 configs through ``api.simulate``
    over workloads built, compiled and swept once in set-up."""

    name = "sweep-warm"
    startups_before, startups_after = 1, 0

    def __init__(self, root: str, work: str, golden: dict,
                 seed: int) -> None:
        super().__init__()
        self.configs = seeded(suite_configs(), seed)
        self.expected = {config: expected_fields(golden, None, config)
                         for config in self.configs}
        self.workloads: dict = {}

    def startup(self) -> float:
        """Build, compile and sweep once, in this process."""
        self.close()
        start = time.perf_counter()
        self.setup()
        return time.perf_counter() - start

    def setup(self) -> None:
        from repro.replay import compiled_trace_for
        from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS, \
            build_workload

        if self.workloads:
            return
        workloads = {alias: build_workload(BENCHMARKS[alias], scale=SCALE)
                     for alias in BENCHMARK_ORDER}
        for workload in workloads.values():
            compiled_trace_for(workload)
        self.workloads = workloads
        self.setup_failure = self._check(self._sweep())

    def _sweep(self) -> list:
        from repro import api

        return [api.simulate(self.workloads[alias],
                             simulation_config(kind, size))
                for alias, kind, size in self.configs]

    def _check(self, runs: list) -> str | None:
        self.checked += sum(len(fields) for fields in self.expected.values())
        for config, run in zip(self.configs, runs):
            if not run.ok:
                return f"{config}: invariants {run.invariant_failures}"
            wrong = result_mismatch(run.result, self.expected[config])
            if wrong is not None:
                return f"{config}: {wrong}"
        return None

    def op(self, index: int):
        start = time.perf_counter()
        runs = self._sweep()
        latency = time.perf_counter() - start
        failure = self._check(runs)
        return latency, 0 if failure else len(runs), failure

    def trace(self, spans_dir: str) -> None:
        import spans

        spans.install(spans_dir)

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        self.workloads = {}
        gc.collect()


class ServeDistinct(Workload):
    """One op is one blocking request from one client, in a closed
    loop, to an in-process ``tcor-serve`` with its defaults (two pool
    workers, a disk store on an empty directory); every request is a
    different one of the 60 configs or an animated request with its own
    seed, so none coalesces or hits a cache.  Ops come in whole rounds
    of eleven (``serve_rounds``)."""

    name = "serve-distinct"
    startups_before = startups_after = 2
    ops_per_round = 11

    def __init__(self, root: str, work: str, golden: dict,
                 seed: int) -> None:
        super().__init__()
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.configs = serve_rounds(seed)
        expected = load_expected()
        self.expected = {config: expected_fields(golden, expected, config)
                         for config in self.configs}
        self.max_ops = len(self.configs)
        self.server = None
        self.client = None
        self.tracing = False
        self.queue_ms: list[float] = []
        self.wire_ms: list[float] = []

    def startup(self) -> float:
        """A fresh interpreter starts the server and answers healthz."""
        return timed_startup(SERVE_STARTUP, self.env, self.work)

    def setup(self) -> None:
        from repro.parallel.store import DiskCache
        from repro.serve.inprocess import InProcessServer

        store = os.path.join(self.work, "serve-store")
        self.server = InProcessServer(jobs=2, disk=DiskCache(store))
        self.client = self.server.client(timeout_s=170.0)
        self.client.healthz()

    def op(self, index: int):
        from repro.serve import schema

        config = self.configs[index]
        alias, kind, size = config[:3]
        request = schema.JobRequest(
            alias=alias, scale=SCALE, config=simulation_config(kind, size),
            anim=anim_spec(config[3]) if len(config) == 4 else None)
        start = time.perf_counter()
        job = self.client.run(request)
        latency = time.perf_counter() - start
        if self.tracing:
            status = self.client.status(job.job_id)
            self.queue_ms.append(status.queued_for_s * 1000.0)
            self.wire_ms.append((latency - job.elapsed_s) * 1000.0)
        if job.state != schema.DONE or job.lane != "pool" \
                or job.attempts != 1 or job.invariant_failures:
            return latency, 0, (f"{config}: state {job.state} lane "
                                f"{job.lane} attempts {job.attempts} "
                                f"{job.error or ''}")
        self.checked += len(self.expected[config])
        wrong = result_mismatch(job.result, self.expected[config])
        if wrong is not None:
            return latency, 0, f"{config}: {wrong}"
        return latency, 1, None

    def trace(self, spans_dir: str) -> None:
        """Spans on; set up after this, so that the pool workers fork
        with the wrappers in place."""
        import spans

        spans.install(spans_dir)
        self.tracing = True

    def serve_metrics(self, ops: int) -> dict:
        counters = self.client.metrics()
        batches = counters.get("serve.batches", 0)
        return {
            "serve.queue_ms": sum(self.queue_ms) / max(1, ops),
            "serve.wire_ms": sum(self.wire_ms) / max(1, ops),
            "serve.batch_jobs_mean": (counters.get("serve.batch_jobs", 0)
                                      / batches if batches else 0.0),
            "serve.coalesced": counters.get("serve.coalesced", 0) / max(1, ops),
            "serve.retries": counters.get("serve.retries", 0) / max(1, ops),
        }

    def close(self) -> None:
        import multiprocessing

        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.close()
            self.server = None
        for child in multiprocessing.active_children():
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()
                child.join(timeout=10)

    def peak_rss_mb(self) -> float:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, pool) / 1024.0


def write_expected(root: str, work: str) -> dict:
    """Compute what ``expected.json`` holds, on this tree.

    figures-cold's tables come from its op run with two pool workers
    and again serially; the two must agree, and every ``sim.*`` value
    of the first must match the golden.  Each animated request's result
    comes from the replay kernels and again from the live simulator,
    which must agree.
    """
    from repro import api
    from repro.anim import build_animated_workload
    from repro.obs.diff import diff_metrics
    from repro.workloads.suite import BENCHMARKS

    golden = load_golden(root)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    dumps = []
    for jobs in ("2", "1"):
        store = os.path.join(work, f"expected-store-{jobs}")
        dump = os.path.join(work, f"expected-{jobs}.json")
        subprocess.run([sys.executable, "-m", "repro.experiments.driver",
                        "--experiment", *FIGURES_EXPERIMENTS,
                        "--benchmarks", *FIGURES_ALIASES,
                        "--scale", str(SCALE), "--jobs", jobs,
                        "--cache-dir", store, "--metrics-out", dump],
                       env=env, cwd=work, check=True,
                       stdout=subprocess.DEVNULL)
        with open(dump) as handle:
            dumps.append(json.load(handle)["metrics"])
    tables = {name: value for name, value in dumps[0].items()
              if name.startswith("table.")}
    if tables != {name: value for name, value in dumps[1].items()
                  if name.startswith("table.")}:
        raise RuntimeError("parallel and serial tables differ")
    sims = {}
    for config in suite_configs():
        if config[0] in FIGURES_ALIASES:
            prefix = golden_prefix(*config) + "."
            sims.update({name: value for name, value in golden.items()
                         if name.startswith(prefix)})
    report = diff_metrics(sims, dumps[0])
    if not report.clean:
        raise RuntimeError(report.describe())

    anim = {}
    config = simulation_config(ANIM_KIND, ANIM_SIZE)
    for number in range(1, len(KINDS) * len(SIZES) + 1):
        workload = build_animated_workload(BENCHMARKS[ANIM_ALIAS],
                                           anim_spec(number), scale=SCALE)
        runs = [api.simulate(workload, config, engine=engine)
                for engine in ("replay", "live")]
        fields = [result_fields(run.result) for run in runs]
        if not all(run.ok for run in runs) or fields[0] != fields[1]:
            raise RuntimeError(f"animated request {number}: replay and "
                               "live disagree or fail their invariants")
        anim[str(number)] = fields[0]
    return {"figures_tables": tables, "serve_anim": anim}


WORKLOADS = {cls.name: cls for cls in (FiguresCold, SweepWarm,
                                        ServeDistinct)}
