"""End-to-end service tests over the real pool and real simulator.

The serving contract (ISSUE acceptance criteria):

- a served simulation is **byte-identical** to a direct
  :func:`repro.api.simulate` call — on the pool lane, on the disk-warm
  lane, and for results that round-tripped the wire;
- N concurrent submissions of the same request coalesce onto one
  simulation (observable in ``serve.coalesced``);
- a full queue rejects with the typed 429-style error;
- SIGTERM drains in-flight work and exits 0 (subprocess test);
- the HTTP surface serves ``/submit``, ``/status``, ``/result``,
  ``/healthz`` and Prometheus-parseable ``/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import SimulationConfig, simulate
from repro.config import KIB
from repro.obs import parse_prometheus_text
from repro.parallel import DiskCache, result_to_dict, \
    simulation_code_signature
from repro.serve import InProcessServer, JobRequest, ServeClientError, \
    schema
from repro.workloads.suite import BENCHMARKS, build_workload

SCALE = 0.05
REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def direct_run(alias, config):
    workload = build_workload(BENCHMARKS[alias], scale=SCALE)
    return simulate(workload, config)


@pytest.fixture(scope="module")
def server():
    with InProcessServer(jobs=2, batch_window_s=0.02) as live:
        yield live


class TestByteIdenticalEquivalence:
    @pytest.mark.parametrize("config", [
        SimulationConfig(kind="tcor"),
        SimulationConfig(kind="baseline", tile_cache_bytes=64 * KIB),
        SimulationConfig(kind="tcor", tile_cache_bytes=64 * KIB,
                         l2_enhancements=False),
    ], ids=["tcor-default", "baseline-64k", "tcor-64k-no-l2"])
    def test_served_equals_direct_simulate(self, server, config):
        """Pool lane == direct library call, to the byte."""
        with server.client() as client:
            served = client.run(JobRequest(alias="GTr", scale=SCALE,
                                           config=config),
                                timeout_s=300)
        direct = direct_run("GTr", config)
        assert served.state == schema.DONE
        # Byte-level: the canonical JSON of both results is identical.
        assert json.dumps(result_to_dict(served.result), sort_keys=True) \
            == json.dumps(result_to_dict(direct.result), sort_keys=True)
        assert dict(served.metrics) == dict(direct.metrics)
        assert tuple(served.invariant_failures) == \
            tuple(direct.invariant_failures)

    def test_disk_warm_lane_is_byte_identical_too(self, tmp_path):
        config = SimulationConfig(kind="tcor")
        request = JobRequest(alias="CCS", scale=SCALE, config=config)
        disk = DiskCache(tmp_path, signature=simulation_code_signature())
        # First server run simulates and writes through to disk.
        with InProcessServer(jobs=1, disk=disk) as warmup:
            with warmup.client() as client:
                first = client.run(request, timeout_s=300)
        assert first.state == schema.DONE and first.lane == "pool"
        # A fresh server over the same store must serve from the disk
        # lane, bit-for-bit equal to the direct call.
        cold_disk = DiskCache(tmp_path,
                              signature=simulation_code_signature())
        with InProcessServer(jobs=1, disk=cold_disk) as warmed:
            with warmed.client() as client:
                second = client.run(request, timeout_s=60)
                disk_hits = client.metrics()["serve.disk_hits"]
        assert second.state == schema.DONE and second.lane == "disk"
        assert disk_hits == 1
        direct = direct_run("CCS", config)
        assert json.dumps(result_to_dict(second.result), sort_keys=True) \
            == json.dumps(result_to_dict(direct.result), sort_keys=True)

    def test_serve_shares_records_with_the_experiment_store(
            self, tmp_path):
        """A store warmed by the *experiment* path (put_result) is warm
        for the server — the two subsystems really share records."""
        config = SimulationConfig(kind="tcor")
        request = JobRequest(alias="GTr", scale=SCALE, config=config)
        direct = direct_run("GTr", config)
        disk = DiskCache(tmp_path, signature=simulation_code_signature())
        disk.put_result(request.identity, request.config, direct.result)
        with InProcessServer(jobs=1, disk=disk) as server:
            with server.client() as client:
                served = client.run(request, timeout_s=60)
        assert served.lane == "disk"
        assert served.result == direct.result


class TestCoalescingUnderConcurrency:
    def test_duplicate_submissions_share_one_simulation(self):
        request = JobRequest(alias="GTr", scale=SCALE,
                             config=SimulationConfig(
                                 tile_cache_bytes=32 * KIB))
        n = 6
        with InProcessServer(jobs=1, batch_window_s=0.25) as server:
            with server.client() as client:
                ids = [client.submit(request)["id"] for _ in range(n)]
                assert len(set(ids)) == 1
                result = client.wait(ids[0], timeout_s=300)
                metrics = client.metrics()
        assert result.state == schema.DONE
        assert metrics["serve.coalesced"] == n - 1
        assert metrics["serve.accepted"] == 1
        assert metrics["serve.batches"] == 1


class TestBackpressure:
    def test_full_queue_rejects_with_typed_429(self):
        with InProcessServer(jobs=1, queue_limit=2,
                             batch_window_s=0.5) as server:
            with server.client() as client:
                client.submit(JobRequest(alias="GTr", scale=SCALE))
                client.submit(JobRequest(alias="CCS", scale=SCALE))
                with pytest.raises(ServeClientError) as excinfo:
                    client.submit(JobRequest(
                        alias="GTr", scale=SCALE,
                        config=SimulationConfig(kind="baseline")))
                metrics = client.metrics()
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.http_status == 429
        assert metrics["serve.rejected.queue_full"] == 1

    def test_bad_request_is_a_typed_400(self, server):
        with server.client() as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.call({"op": "submit",
                             "request": {"alias": "NotABenchmark"}})
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServeClientError) as excinfo:
                client.call({"op": "status", "id": "no-such-job"})
            assert excinfo.value.http_status == 404
            with pytest.raises(ServeClientError) as excinfo:
                client.call({"op": "frobnicate"})
            assert excinfo.value.code == "bad_request"


class TestHttpSurface:
    def test_http_round_trip(self, server):
        base = f"http://{server.host}:{server.port}"
        with urllib.request.urlopen(f"{base}/healthz") as resp:
            health = json.load(resp)
        assert resp_status_ok(health) and health["draining"] is False

        body = json.dumps({
            "request": schema.request_to_payload(
                JobRequest(alias="CCS", scale=SCALE)),
            "wait": True, "timeout_s": 300}).encode()
        post = urllib.request.Request(
            f"{base}/submit", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(post) as resp:
            submitted = json.load(resp)
        assert submitted["result"]["state"] == schema.DONE
        job_id = submitted["id"]

        with urllib.request.urlopen(f"{base}/status/{job_id}") as resp:
            assert json.load(resp)["status"]["state"] == schema.DONE
        with urllib.request.urlopen(f"{base}/result/{job_id}") as resp:
            payload = json.load(resp)["result"]
        served = schema.job_result_from_payload(payload)
        direct = direct_run("CCS", SimulationConfig())
        assert served.result == direct.result

    def test_http_errors_map_to_status_codes(self, server):
        base = f"http://{server.host}:{server.port}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/status/no-such-job")
        assert excinfo.value.code == 404
        assert json.load(excinfo.value)["error"]["code"] == "not_found"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/no/such/route")
        assert excinfo.value.code == 404

    def test_metrics_exposition_parses(self, server):
        base = f"http://{server.host}:{server.port}"
        with urllib.request.urlopen(f"{base}/metrics") as resp:
            text = resp.read().decode()
        parsed = parse_prometheus_text(text)
        # The full serve surface is present from the first scrape.
        assert "serve.submitted" in parsed
        assert "serve.coalesced" in parsed
        assert "serve.rejected.queue_full" in parsed


def resp_status_ok(health):
    return health["ok"] is True


class SlowStore(DiskCache):
    """A result store whose every write takes about 0.3 s, so that the
    write-throughs of back-to-back batches overlap."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.writes = 0

    def put_result(self, identity, config, result) -> None:
        time.sleep(0.3)
        super().put_result(identity, config, result)
        self.writes += 1


class TestInflightGauge:
    def test_overlapping_write_throughs_return_inflight_to_zero(
            self, tmp_path):
        """A job finishes before its batch's write-through does, so the
        next batch is dispatched while the first write is still in
        flight; once both writes are done, the in-flight count must be
        0 on both surfaces (a lost update leaves -1 or 1)."""
        store = SlowStore(tmp_path, signature=simulation_code_signature())
        with InProcessServer(jobs=2, disk=store,
                             batch_window_s=0.02) as server:
            base = f"http://{server.host}:{server.port}"
            with server.client() as client:
                first = client.run(JobRequest(alias="GTr", scale=SCALE),
                                   timeout_s=300)
                second = client.run(JobRequest(alias="CCS", scale=SCALE),
                                    timeout_s=300)
            assert first.state == second.state == schema.DONE
            deadline = time.monotonic() + 30
            while store.writes < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert store.writes == 2
            deadline = time.monotonic() + 5
            while True:
                with urllib.request.urlopen(f"{base}/healthz") as resp:
                    inflight = json.load(resp)["inflight"]
                with urllib.request.urlopen(f"{base}/metrics") as resp:
                    gauge = parse_prometheus_text(
                        resp.read().decode())["serve.inflight"]
                if (inflight, gauge) == (0, 0) \
                        or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
        assert inflight == 0
        assert gauge == 0


class _StuckScheduler:
    """A scheduler whose drain waits until the test releases it."""

    draining = False

    async def start(self) -> None:
        self.release = asyncio.Event()

    async def drain(self, timeout_s=None) -> int:
        await self.release.wait()
        return 0

    async def close(self) -> None:
        pass


class TestGracefulShutdown:
    def test_a_stalled_drain_names_the_pending_awaits(self, monkeypatch):
        """An in-process drain that times out says which await stalled:
        every task pending on the server loop, with the coroutines it is
        suspended in."""
        from repro.serve import inprocess

        monkeypatch.setattr(inprocess, "DRAIN_GRACE_S", 0.2)
        scheduler = _StuckScheduler()
        server = InProcessServer(scheduler=scheduler)
        try:
            with pytest.raises(TimeoutError) as caught:
                server.drain(timeout_s=0.0)
            report = str(caught.value)
            assert "within 0.2s" in report
            assert ("SimulationServer.drain (server.py:"
                    in report), report
            assert "_StuckScheduler.drain (test_serve_endtoend.py:" \
                in report, report
            assert "Event.wait (locks.py:" in report, report
        finally:
            async def release() -> None:
                scheduler.release.set()

            server.submit(release()).result(timeout=10)
            server.drain(timeout_s=10.0)
        assert not server._thread.is_alive()

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """The full CLI contract: submit work, SIGTERM mid-flight, the
        server finishes the job, reports the drain, and exits 0."""
        port_file = tmp_path / "port"
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--port-file", str(port_file), "--jobs", "1",
             "--no-disk-cache", "--drain-timeout", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        try:
            deadline = time.time() + 60
            while not port_file.exists() and time.time() < deadline:
                time.sleep(0.05)
            port = int(port_file.read_text())
            from repro.serve import ServeClient
            with ServeClient(port=port) as client:
                job_id = client.submit(
                    JobRequest(alias="GTr", scale=SCALE))["id"]
                assert job_id
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=300)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        assert "draining" in output
        assert "drained 1 live job(s)" in output
