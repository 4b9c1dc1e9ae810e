"""Cluster soak benchmark (PR 8): router + 3 shards under failure.

One sustained soak through the consistent-hash router: three real
``tcor-serve`` backend processes behind an in-process :class:`Router`,
2048 mixed hot/cold submissions, and one backend SIGKILLed mid-soak.
The gates are the cluster's serving contract:

- **zero lost jobs** — everything accepted completes; nothing fails,
  nothing hangs, despite the injected backend loss;
- **shard balance** — the hash ring spreads uniform keys within the
  max/min <= 1.5 tolerance at 3 shards (and the soak's *actual*
  per-shard forward counts ride along in ``extra_info``);
- **tier effectiveness** — the router's memo, memory tier and
  coalescing absorb the hot traffic; the memory-tier hit rate is
  exported.

The artifact (``BENCH_PR8.json``) carries requests/sec, shard balance
and tier hit rates alongside wall time.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.api import SimulationConfig
from repro.config import KIB
from repro.serve import InProcessServer, JobRequest
from repro.serve.cluster import MemoryTier, Router, parse_backends
from repro.serve.ring import HashRing

# The soak measures the serving fabric, not the simulator: a small
# fixed geometry keeps the 64 distinct simulations in the seconds
# range while the request count stays in the thousands.
SOAK_SCALE = 0.05
SHARDS = ("shard0", "shard1", "shard2")
TOTAL_REQUESTS = 2048
KILL_AT = TOTAL_REQUESTS // 3
REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def spawn_backend(name: str, tmp: Path) -> tuple:
    port_file = tmp / f"{name}.port"
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    # Own process group so the injected SIGKILL takes the worker-pool
    # children down too (inherited socket fds would otherwise keep the
    # router's in-flight reads open).
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--port-file", str(port_file), "--jobs", "2",
         "--no-disk-cache", "--name", name],
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT, env=env,
        start_new_session=True)
    return proc, port_file


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone
    proc.wait(timeout=30)


def await_ports(spawned: dict) -> dict:
    deadline = time.time() + 120
    ports = {}
    for name, (_, port_file) in spawned.items():
        while time.time() < deadline:
            if port_file.exists() and port_file.read_text().strip():
                ports[name] = int(port_file.read_text())
                break
            time.sleep(0.05)
    return ports


def soak_requests() -> tuple[list[JobRequest], list[JobRequest]]:
    """A hot set (8 keys, 75% of traffic) and a cold pool (64 keys)."""
    cold = [
        JobRequest(alias=alias, scale=SOAK_SCALE,
                   config=SimulationConfig(
                       tile_cache_bytes=(32 + 4 * step) * KIB))
        for alias in ("GTr", "CCS") for step in range(32)
    ]
    return cold[:8], cold


def test_cluster_soak_with_backend_kill(benchmark, tmp_path):
    hot, cold = soak_requests()
    spawned = {name: spawn_backend(name, tmp_path) for name in SHARDS}
    procs = {name: proc for name, (proc, _) in spawned.items()}

    def soak():
        ports = await_ports(spawned)
        assert len(ports) == len(SHARDS), "a backend failed to bind"
        # The router memo is squeezed below the 72 distinct keys on
        # purpose: hot repeats must fall through to the memory tier.
        router = Router(
            parse_backends([{"name": name,
                             "address": f"127.0.0.1:{ports[name]}"}
                            for name in SHARDS]),
            memory=MemoryTier(8 << 20),
            memo_limit=4, probe_interval_s=0.2, fail_threshold=1,
            retry_backoff_s=0.05, max_forward_attempts=6,
            forward_timeout_s=300.0)
        victim = SHARDS[-1]
        with InProcessServer(scheduler=router) as front:
            with front.client(timeout_s=300.0) as client:
                for index in range(TOTAL_REQUESTS):
                    if index == KILL_AT:
                        kill_group(procs[victim])
                    if index % 4 == 0:
                        client.submit(cold[(index // 4) % len(cold)])
                    else:
                        client.submit(hot[index % len(hot)])
                deadline = time.time() + 300
                while time.time() < deadline:
                    metrics = client.metrics()
                    settled = (metrics["serve.cluster.completed"]
                               + metrics.get("serve.cluster.failed", 0))
                    if settled >= metrics["serve.cluster.accepted"]:
                        break
                    time.sleep(0.1)
                # Warm re-read: the whole key set again, once settled.
                # The squeezed memo has evicted almost every finished
                # job, so these repeats fall through to the memory
                # tier and are answered without a single new forward.
                for request in cold:
                    client.submit(request)
                metrics = client.metrics()
        return metrics

    try:
        metrics = run_once(benchmark, soak)
    finally:
        for proc in procs.values():
            kill_group(proc)

    # Zero lost jobs: every accepted request completed, none failed.
    accepted = metrics["serve.cluster.accepted"]
    completed = metrics["serve.cluster.completed"]
    assert metrics["serve.cluster.active"] == 0
    assert metrics.get("serve.cluster.failed", 0) == 0
    assert completed == accepted
    assert metrics["serve.cluster.submitted"] \
        == TOTAL_REQUESTS + len(cold)
    assert metrics["serve.cluster.backend_down"] >= 1

    # The ISSUE's balance gate, on uniform keys at 3 shards.
    spread = HashRing(SHARDS).spread([f"key-{i}" for i in range(20000)])
    uniform_balance = max(spread.values()) / min(spread.values())
    assert uniform_balance <= 1.5

    # Tier effectiveness: the squeezed memo forces hot repeats through
    # the memory tier; coalescing absorbs in-flight duplicates.
    memory_hits = metrics["serve.cluster.tier.memory_hits"]
    misses = metrics["serve.cluster.tier.misses"]
    assert memory_hits > 0

    elapsed = benchmark.stats.stats.total
    benchmark.extra_info["requests"] = TOTAL_REQUESTS
    benchmark.extra_info["distinct_keys"] = len(cold)
    benchmark.extra_info["requests_per_sec"] = round(
        TOTAL_REQUESTS / elapsed, 1)
    benchmark.extra_info["lost_jobs"] = int(
        accepted - completed - metrics.get("serve.cluster.failed", 0))
    benchmark.extra_info["uniform_key_shard_balance"] = round(
        uniform_balance, 3)
    benchmark.extra_info["soak_shard_balance"] = metrics.get(
        "serve.cluster.shard_balance", 0.0)
    benchmark.extra_info["shard_forwarded"] = {
        name: metrics.get(f"serve.cluster.shard.{name}.forwarded", 0)
        for name in SHARDS}
    benchmark.extra_info["memory_tier_hit_rate"] = round(
        memory_hits / max(1, memory_hits + misses), 3)
    benchmark.extra_info["memo_hits"] = metrics[
        "serve.cluster.memo_hits"]
    benchmark.extra_info["coalesced"] = metrics[
        "serve.cluster.coalesced"]
    benchmark.extra_info["requeued_on_failure"] = metrics.get(
        "serve.cluster.requeued", 0)
    benchmark.extra_info["backends_killed"] = 1
