"""The sharded cluster end to end: router, tiers, failover.

The acceptance criteria this file pins:

- results served through the router are **byte-identical** to direct
  :func:`repro.api.simulate` calls;
- requests shard by key affinity, exactly where the hash ring says;
- identical submissions coalesce at the router (one forward);
- the memory and disk tiers serve repeats without forwarding;
- killing a backend mid-soak loses zero jobs — drained work completes
  on the survivors, still byte-identical;
- a backend speaking a distant wire-schema version is quarantined via
  the typed negotiation, never silently misparsed.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import SimulationConfig, simulate
from repro.config import KIB
from repro.parallel import DiskCache, result_to_dict
from repro.serve import InProcessServer, JobRequest, schema
from repro.serve.cluster import Router, parse_backends
from repro.serve.schema import ServeError
from repro.serve.tiers import MemoryTier, TieredResultCache
from repro.tcor.system import SystemResult
from repro.workloads.suite import BENCHMARKS, build_workload

SCALE = 0.05
REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def direct_run(alias, config):
    workload = build_workload(BENCHMARKS[alias], scale=SCALE)
    return simulate(workload, config)


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def make_router(backends, **kwargs):
    kwargs.setdefault("tier",
                      TieredResultCache(memory=MemoryTier(1 << 20)))
    kwargs.setdefault("probe_interval_s", 0.2)
    kwargs.setdefault("fail_threshold", 1)
    kwargs.setdefault("connect_timeout_s", 5.0)
    return Router(parse_backends(backends), **kwargs)


class TestParseBackends:
    def test_flexible_entry_forms(self):
        backends = parse_backends(
            {"backends": ["127.0.0.1:1001",
                          {"name": "custom", "host": "127.0.0.1",
                           "port": 1002},
                          {"address": "127.0.0.1:1003"}]})
        assert [b.name for b in backends] == ["shard0", "custom",
                                              "shard2"]
        assert [b.port for b in backends] == [1001, 1002, 1003]

    def test_rejections_are_typed(self):
        for bad in ([], ["nocolon"], [{"name": "a", "address": "h:1"},
                                      {"name": "a", "address": "h:2"}],
                    [42]):
            with pytest.raises(ServeError) as info:
                parse_backends(bad)
            assert info.value.code == "bad_request"


@pytest.fixture(scope="module")
def cluster():
    """Router front door over two real in-process backend workers."""
    with InProcessServer(jobs=1, batch_window_s=0.02,
                         name="alpha") as alpha:
        with InProcessServer(jobs=1, batch_window_s=0.02,
                             name="beta") as beta:
            router = make_router(
                [{"name": "alpha", "address":
                  f"{alpha.host}:{alpha.port}"},
                 {"name": "beta", "address":
                  f"{beta.host}:{beta.port}"}])
            with InProcessServer(scheduler=router) as front:
                yield front, router


class TestClusterServing:
    @pytest.mark.parametrize("alias,config", [
        ("GTr", SimulationConfig(kind="tcor")),
        ("CCS", SimulationConfig(kind="baseline",
                                 tile_cache_bytes=64 * KIB)),
    ], ids=["tcor-GTr", "baseline-CCS"])
    def test_routed_equals_direct_simulate(self, cluster, alias,
                                           config):
        front, router = cluster
        with front.client() as client:
            served = client.run(JobRequest(alias=alias, scale=SCALE,
                                           config=config),
                                timeout_s=300)
        assert served.state == schema.DONE
        assert served.shard in ("alpha", "beta")
        assert served.served_by in ("alpha", "beta")
        direct = direct_run(alias, config)
        assert canonical(served.result) == canonical(direct.result)
        assert dict(served.metrics) == dict(direct.metrics)

    def test_shard_affinity_matches_the_ring(self, cluster):
        front, router = cluster
        request = JobRequest(alias="GTr", scale=SCALE,
                             config=SimulationConfig(
                                 tile_cache_bytes=32 * KIB))
        key = schema.request_key(request, router.tier.signature)
        predicted = router.ring.node_for(key)
        with front.client() as client:
            served = client.run(request, timeout_s=300)
        assert served.state == schema.DONE
        assert served.shard == predicted

    def test_healthz_shows_the_cluster_shape(self, cluster):
        front, router = cluster
        with front.client() as client:
            health = client.healthz()
        assert health["role"] == "router"
        assert health["backends_up"] == 2
        assert set(health["backends"]) == {"alpha", "beta"}
        assert health["schema_version"] == schema.SCHEMA_VERSION

    def test_duplicate_submissions_coalesce_at_the_router(
            self, cluster):
        front, router = cluster
        request = JobRequest(alias="GTr", scale=SCALE,
                             config=SimulationConfig(
                                 kind="baseline",
                                 tile_cache_bytes=32 * KIB))
        n = 5
        with front.client() as client:
            before = client.metrics()
            ids = [client.submit(request)["id"] for _ in range(n)]
            assert len(set(ids)) == 1
            result = client.wait(ids[0], timeout_s=300)
            after = client.metrics()
        assert result.state == schema.DONE
        assert after["serve.cluster.coalesced"] \
            - before.get("serve.cluster.coalesced", 0) == n - 1
        assert after["serve.cluster.forwarded"] \
            - before.get("serve.cluster.forwarded", 0) == 1

    def test_repeat_submission_is_a_memo_hit(self, cluster):
        front, router = cluster
        request = JobRequest(alias="GTr", scale=SCALE)
        with front.client() as client:
            first = client.run(request, timeout_s=300)
            before = client.metrics()
            again = client.submit(request)
            after = client.metrics()
        assert again["reused"] is True
        assert after["serve.cluster.memo_hits"] \
            - before.get("serve.cluster.memo_hits", 0) == 1
        assert first.state == schema.DONE

    def test_metrics_export_the_cluster_surface(self, cluster):
        front, router = cluster
        with front.client() as client:
            metrics = client.metrics()
        for name in ("serve.cluster.submitted",
                     "serve.cluster.forwarded",
                     "serve.cluster.tier.memory_hits",
                     "serve.cluster.tier.disk_hits",
                     "serve.cluster.requeued",
                     "serve.cluster.backends_up",
                     "serve.cluster.shard.alpha.forwarded",
                     "serve.cluster.shard.beta.forwarded"):
            assert name in metrics, name
        assert metrics["serve.cluster.backends_up"] == 2
        assert metrics["serve.cluster.backends_total"] == 2


class TestMemoryTierLane:
    def test_memo_evicted_repeat_serves_from_the_memory_tier(self):
        """With the router memo squeezed to one entry, a repeat of an
        evicted key must be answered by the memory tier — no forward,
        lane == "memory"."""
        request_a = JobRequest(alias="GTr", scale=SCALE)
        request_b = JobRequest(alias="GTr", scale=SCALE,
                               config=SimulationConfig(
                                   tile_cache_bytes=32 * KIB))
        with InProcessServer(jobs=1, batch_window_s=0.02) as backend:
            router = make_router(
                [f"{backend.host}:{backend.port}"], memo_limit=1)
            with InProcessServer(scheduler=router) as front:
                with front.client() as client:
                    client.run(request_a, timeout_s=300)
                    client.run(request_b, timeout_s=300)  # evicts A
                    forwarded = client.metrics()[
                        "serve.cluster.forwarded"]
                    repeat = client.run(request_a, timeout_s=60)
                    after = client.metrics()
        assert repeat.state == schema.DONE
        assert repeat.lane == "memory"
        assert after["serve.cluster.tier.memory_hits"] == 1
        assert after["serve.cluster.forwarded"] == forwarded  # no new


class TestDiskTierLane:
    def test_disk_warm_key_never_reaches_a_backend(self, tmp_path):
        """A store record warms the router's disk tier: the job is
        served lane=="disk" even with every backend dead."""
        disk = DiskCache(tmp_path, signature="cluster-sig")
        request = JobRequest(alias="GTr", scale=SCALE)
        stored = SystemResult(label="stored-run", alias="GTr")
        disk.put_result(request.identity, request.config, stored)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = probe.getsockname()[1]
        router = make_router(
            [f"127.0.0.1:{dead}"],
            tier=TieredResultCache(memory=MemoryTier(1 << 20),
                                   disk=disk),
            no_backend_wait_s=0.5)
        with InProcessServer(scheduler=router) as front:
            with front.client() as client:
                served = client.run(request, timeout_s=60)
                metrics = client.metrics()
                repeat = client.submit(request)
        assert served.state == schema.DONE
        assert served.lane == "disk"
        assert served.result == stored
        assert metrics["serve.cluster.tier.disk_hits"] == 1
        assert repeat["reused"] is True  # memo now holds it


class TestVersionQuarantine:
    def test_distant_schema_version_marks_the_backend_down(self):
        """A backend advertising a far wire-schema version must be
        quarantined by the health loop, and jobs must fail with the
        typed no-backends error instead of being misparsed."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        stop = threading.Event()

        def fake_far_backend():
            listener.settimeout(0.2)
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    reader = conn.makefile("rb")
                    line = reader.readline()
                    if line:
                        conn.sendall(json.dumps(
                            {"ok": True, "schema_version":
                             schema.SCHEMA_VERSION + 10}).encode()
                            + b"\n")

        thread = threading.Thread(target=fake_far_backend, daemon=True)
        thread.start()
        try:
            router = make_router([f"127.0.0.1:{port}"],
                                 probe_interval_s=0.1,
                                 no_backend_wait_s=0.5)
            with InProcessServer(scheduler=router) as front:
                with front.client() as client:
                    deadline = time.time() + 10
                    while time.time() < deadline:
                        if client.healthz()["backends_up"] == 0:
                            break
                        time.sleep(0.05)
                    health = client.healthz()
                    result = client.run(
                        JobRequest(alias="GTr", scale=SCALE),
                        timeout_s=60)
                    metrics = client.metrics()
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()
        assert health["backends_up"] == 0
        assert "version" in health["backends"]["shard0"]["error"]
        assert result.state == schema.FAILED
        assert "no healthy backend" in result.error
        assert metrics["serve.cluster.version_mismatch"] >= 1


def spawn_backend(name: str, tmp_path: Path) -> tuple:
    port_file = tmp_path / f"{name}.port"
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    # Each backend gets its own process group: SIGKILL must take the
    # worker-pool children down with the server, or their inherited
    # socket fds keep the router's in-flight reads from seeing EOF
    # (exactly like a hung — not dead — machine would).
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--port-file", str(port_file), "--jobs", "1",
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


class TestFailoverMidSoak:
    def test_killed_backend_loses_no_jobs(self, tmp_path):
        """The drain/requeue contract: SIGKILL one of three backends
        with work in flight; every job completes on the survivors,
        byte-identical to direct simulate()."""
        names = ("shard0", "shard1", "shard2")
        procs = {}
        try:
            spawned = {name: spawn_backend(name, tmp_path)
                       for name in names}
            procs = {name: proc for name, (proc, _) in spawned.items()}
            deadline = time.time() + 120
            ports = {}
            for name, (_, port_file) in spawned.items():
                while not port_file.exists() and time.time() < deadline:
                    time.sleep(0.05)
                ports[name] = int(port_file.read_text())

            router = make_router(
                [{"name": name, "address": f"127.0.0.1:{ports[name]}"}
                 for name in names],
                probe_interval_s=0.2, retry_backoff_s=0.05,
                max_forward_attempts=6, forward_timeout_s=300.0)
            configs = [
                ("GTr", SimulationConfig(kind="tcor")),
                ("GTr", SimulationConfig(kind="baseline")),
                ("GTr", SimulationConfig(tile_cache_bytes=32 * KIB)),
                ("CCS", SimulationConfig(kind="tcor")),
                ("CCS", SimulationConfig(kind="baseline")),
                ("CCS", SimulationConfig(tile_cache_bytes=64 * KIB)),
            ]
            requests = [JobRequest(alias=alias, scale=SCALE,
                                   config=config)
                        for alias, config in configs]
            # Kill the shard that owns the first request's key, so at
            # least one in-flight forward demonstrably drains.
            victim = router.ring.node_for(
                schema.request_key(requests[0],
                                   router.tier.signature))
            with InProcessServer(scheduler=router) as front:
                with front.client(timeout_s=300.0) as client:
                    ids = [client.submit(request)["id"]
                           for request in requests]
                    time.sleep(0.3)  # let forwards reach the shards
                    kill_group(procs[victim])
                    results = [client.wait(job_id, timeout_s=300)
                               for job_id in ids]
                    metrics = client.metrics()
        finally:
            for proc in procs.values():
                kill_group(proc)

        assert all(r.state == schema.DONE for r in results), \
            [(r.state, r.error) for r in results]
        survivors = set(names) - {victim}
        finished_after_kill = [r for r in results if r.shard != victim]
        assert finished_after_kill, "expected post-kill completions"
        assert all(r.shard in survivors for r in finished_after_kill)
        assert metrics["serve.cluster.backend_down"] >= 1
        for request, served in zip(requests, results):
            direct = direct_run(request.alias, request.config)
            assert canonical(served.result) == canonical(direct.result)
