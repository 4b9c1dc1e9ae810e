"""Scheduler unit tests: coalescing, batching, lanes, robustness.

The process pool is swapped for a thread pool (``executor_factory``)
and the worker for controllable fakes, so every scheduling decision is
tested deterministically and in milliseconds; the real pool + real
simulator path is covered by ``test_serve_endtoend.py``.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import SimulationConfig
from repro.config import KIB
from repro.parallel import result_from_dict, result_to_dict
from repro.serve import scheduler as scheduler_module
from repro.serve.scheduler import Scheduler
from repro.serve.schema import DONE, FAILED, QUEUED, TIMEOUT, JobRequest, \
    ServeError
from repro.tcor.system import SystemResult

SCALE = 0.05


def make_result(alias="GTr", label="tcor"):
    return SystemResult(label=label, alias=alias, pb_l2_reads=11,
                        mm_reads=3, structure_accesses={"l2": 42})


def good_records(alias, scale, entries, anim_payload=None, store=None):
    return [{"key": key, "result": result_to_dict(make_result(alias)),
             "metrics": {"fake.metric": 1.0}, "invariant_failures": []}
            for key, _config in entries]


def request(alias="GTr", *, size=None, **kwargs):
    config = SimulationConfig(tile_cache_bytes=size)
    return JobRequest(alias=alias, scale=SCALE, config=config, **kwargs)


def run_with_scheduler(body, **kwargs):
    """Run ``await body(sched)`` against a started thread-pool-backed
    scheduler, closing it afterwards."""
    kwargs.setdefault("executor_factory",
                      lambda jobs: ThreadPoolExecutor(max_workers=jobs))
    kwargs.setdefault("batch_window_s", 0.01)
    kwargs.setdefault("retry_backoff_s", 0.01)

    async def main():
        sched = Scheduler(**kwargs)
        await sched.start()
        try:
            return await body(sched)
        finally:
            await sched.close()

    return asyncio.run(main())


class TestHappyPath:
    def test_job_completes_on_the_pool_lane(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)

        async def body(sched):
            job, reused = sched.submit(request())
            assert not reused and job.state == QUEUED
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.state == DONE and job.lane == "pool"
            assert job.attempts == 1
            payload = sched.result_payload(job)
            assert result_from_dict(payload["result"]) == make_result()
            assert payload["metrics"] == {"fake.metric": 1.0}
            assert sched.metrics.value("completed") == 1

        run_with_scheduler(body)

    def test_memo_serves_repeat_submissions(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 5)
            again, reused = sched.submit(request())
            assert reused and again is job
            assert sched.metrics.value("memo_hits") == 1

        run_with_scheduler(body)


class TestCoalescing:
    def test_identical_keys_share_one_job(self, monkeypatch):
        calls = []

        def worker(alias, scale, entries, anim_payload=None, store=None):
            calls.append(entries)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            first, reused_a = sched.submit(request())
            # Identical simulation, different scheduling hints: must
            # coalesce, not fork a second job.
            dup, reused_b = sched.submit(request(priority="interactive"))
            assert not reused_a and reused_b and dup is first
            assert first.coalesced == 1
            await asyncio.wait_for(first.done.wait(), 5)
            assert sched.metrics.value("coalesced") == 1
            assert sched.metrics.value("accepted") == 1
            assert len(calls) == 1 and len(calls[0]) == 1

        run_with_scheduler(body, batch_window_s=0.1)


class TestMicroBatching:
    def test_compatible_jobs_share_one_worker_call(self, monkeypatch):
        calls = []

        def worker(alias, scale, entries, anim_payload=None, store=None):
            calls.append((alias, len(entries)))
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            jobs = [sched.submit(request(size=size))[0]
                    for size in (32 * KIB, 64 * KIB, 128 * KIB)]
            jobs.append(sched.submit(request("CCS"))[0])
            await asyncio.wait_for(
                asyncio.gather(*(job.done.wait() for job in jobs)), 10)
            assert sorted(calls) == [("CCS", 1), ("GTr", 3)]
            assert sched.metrics.value("batches") == 2
            assert sched.metrics.value("batch_jobs") == 4

        run_with_scheduler(body, batch_window_s=0.1, batch_max=8)

    def test_interactive_lane_goes_first(self, monkeypatch):
        order = []

        def worker(alias, scale, entries, anim_payload=None, store=None):
            order.append(alias)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            slow = sched.submit(request("CCS"))[0]
            fast = sched.submit(request(priority="interactive"))[0]
            await asyncio.wait_for(
                asyncio.gather(slow.done.wait(), fast.done.wait()), 10)
            assert order[0] == "GTr"

        run_with_scheduler(body, batch_window_s=0.1, jobs=1)


class TestIdleDispatch:
    """With a store, the batch window is waited only while every worker
    is busy."""

    def test_request_on_an_idle_pool_skips_the_window(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 1.0)
            assert job.state == DONE
            assert job.status().queued_for_s < 1.0

        run_with_scheduler(body, batch_window_s=5.0, disk=FakeDisk())

    def test_without_a_store_the_window_is_always_waited(self,
                                                         monkeypatch):
        # No store to pass a trace on: a burst split at its first job
        # would build its workload twice.
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.status().queued_for_s >= 0.3

        run_with_scheduler(body, batch_window_s=0.3)

    def test_busy_worker_still_batches_across_awaits(self, monkeypatch):
        release = threading.Event()
        calls = []

        def worker(alias, scale, entries, anim_payload=None, store=None):
            calls.append((alias, len(entries)))
            release.wait(5)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            busy = sched.submit(request("CCS"))[0]
            while busy.state == QUEUED:
                await asyncio.sleep(0.005)
            first = sched.submit(request(size=32 * KIB))[0]
            await asyncio.sleep(0.02)
            second = sched.submit(request(size=64 * KIB))[0]
            release.set()
            await asyncio.wait_for(asyncio.gather(
                *(job.done.wait() for job in (busy, first, second))), 5)
            assert calls == [("CCS", 1), ("GTr", 2)]
            assert sched.metrics.value("batches") == 2

        try:
            run_with_scheduler(body, batch_window_s=0.3, jobs=1,
                               disk=FakeDisk())
        finally:
            release.set()

    def test_group_cut_at_once_holds_its_later_jobs(self, monkeypatch):
        # A burst's first job goes out alone on an idle pool; the rest
        # of its group waits for it instead of building the workload on
        # the other worker, while another group still starts at once.
        release = threading.Event()
        calls = []

        def worker(alias, scale, entries, anim_payload=None, store=None):
            calls.append((alias, len(entries)))
            if alias == "GTr":
                release.wait(5)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            head = sched.submit(request(size=32 * KIB))[0]
            while head.state == QUEUED:
                await asyncio.sleep(0.005)
            rest = [sched.submit(request(size=size * KIB))[0]
                    for size in (64, 96)]
            other = sched.submit(request("CCS"))[0]
            await asyncio.wait_for(other.done.wait(), 1.0)
            assert all(job.state == QUEUED for job in rest)
            release.set()
            await asyncio.wait_for(asyncio.gather(
                *(job.done.wait() for job in [head, *rest])), 5)
            assert calls == [("GTr", 1), ("CCS", 1), ("GTr", 2)]

        try:
            run_with_scheduler(body, batch_window_s=5.0, jobs=2,
                               disk=FakeDisk())
        finally:
            release.set()

    def test_full_batch_holds_nothing(self, monkeypatch):
        # A full batch takes no more jobs, so the rest of its group
        # goes out beside it.
        release = threading.Event()
        calls = []

        def worker(alias, scale, entries, anim_payload=None, store=None):
            calls.append(len(entries))
            release.wait(5)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            jobs = [sched.submit(request(size=size * KIB))[0]
                    for size in (32, 64, 96)]

            async def both_started():
                while len(calls) < 2:
                    await asyncio.sleep(0.005)
            await asyncio.wait_for(both_started(), 1.0)
            release.set()
            await asyncio.wait_for(asyncio.gather(
                *(job.done.wait() for job in jobs)), 5)
            assert sorted(calls) == [1, 2]

        try:
            run_with_scheduler(body, batch_window_s=5.0, jobs=2,
                               batch_max=2, disk=FakeDisk())
        finally:
            release.set()


class TestAdmissionControl:
    def test_full_queue_rejects_with_429(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)

        async def body(sched):
            sched.submit(request(size=32 * KIB))
            sched.submit(request(size=64 * KIB))
            with pytest.raises(ServeError) as excinfo:
                sched.submit(request(size=128 * KIB))
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.http_status == 429
            assert sched.metrics.value("rejected.queue_full") == 1
            # Coalescing onto live work is still allowed at capacity.
            _, reused = sched.submit(request(size=32 * KIB))
            assert reused

        run_with_scheduler(body, queue_limit=2, batch_window_s=0.2)

    def test_draining_rejects_with_503(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)

        async def body(sched):
            await sched.drain(timeout_s=1)
            with pytest.raises(ServeError) as excinfo:
                sched.submit(request())
            assert excinfo.value.code == "draining"
            assert excinfo.value.http_status == 503
            assert sched.metrics.value("rejected.draining") == 1

        run_with_scheduler(body)

    def test_drain_finishes_inflight_work(self, monkeypatch):
        release = threading.Event()

        def worker(alias, scale, entries, anim_payload=None, store=None):
            release.wait(5)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            job, _ = sched.submit(request())
            while job.state == QUEUED:
                await asyncio.sleep(0.005)
            drain = asyncio.create_task(sched.drain(timeout_s=5))
            await asyncio.sleep(0.02)
            release.set()
            assert await drain == 1
            assert job.state == DONE
            assert sched.metrics.value("drained") == 1

        try:
            run_with_scheduler(body)
        finally:
            release.set()


class TestFailureModes:
    def test_pool_error_retries_then_succeeds(self, monkeypatch):
        attempts = []

        def worker(alias, scale, entries, anim_payload=None, store=None):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient pool failure")
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 10)
            assert job.state == DONE and job.attempts == 2
            assert sched.metrics.value("retries") == 1

        run_with_scheduler(body, max_attempts=2)

    def test_attempt_budget_exhausts_to_failed(self, monkeypatch):
        def worker(alias, scale, entries, anim_payload=None, store=None):
            raise RuntimeError("persistent pool failure")
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 10)
            assert job.state == FAILED and job.attempts == 2
            assert "persistent pool failure" in job.error
            assert sched.metrics.value("failed") == 1

        run_with_scheduler(body, max_attempts=2)

    def test_deterministic_sim_error_is_not_retried(self, monkeypatch):
        def worker(alias, scale, entries, anim_payload=None, store=None):
            return [{"key": key, "error": "ValueError: bad geometry"}
                    for key, _config in entries]
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 10)
            assert job.state == FAILED and job.attempts == 1
            assert job.error == "ValueError: bad geometry"
            assert sched.metrics.value("retries") == 0

        run_with_scheduler(body, max_attempts=3)

    def test_timeout_recycles_the_pool(self, monkeypatch):
        pools_made = []

        def factory(jobs):
            pools_made.append(1)
            return ThreadPoolExecutor(max_workers=jobs)

        def worker(alias, scale, entries, anim_payload=None, store=None):
            import time
            time.sleep(0.4)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            job, _ = sched.submit(request(timeout_s=0.05))
            await asyncio.wait_for(job.done.wait(), 10)
            assert job.state == TIMEOUT
            assert "timed out" in job.error
            assert sched.metrics.value("timeouts") == 1
            assert sched.metrics.value("pool_recycles") == 1
            assert len(pools_made) == 2  # the original + the recycle

        run_with_scheduler(body, max_attempts=1, executor_factory=factory)

    def test_failed_key_can_be_resubmitted(self, monkeypatch):
        attempts = []

        def worker(alias, scale, entries, anim_payload=None, store=None):
            attempts.append(1)
            if len(attempts) == 1:
                return [{"key": key, "error": "ValueError: flaky input"}
                        for key, _config in entries]
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            first, _ = sched.submit(request())
            await asyncio.wait_for(first.done.wait(), 10)
            assert first.state == FAILED
            second, reused = sched.submit(request())
            assert not reused and second is not first
            await asyncio.wait_for(second.done.wait(), 10)
            assert second.state == DONE

        run_with_scheduler(body, max_attempts=1)


class FakeDisk:
    """Duck-typed stand-in for the DiskCache."""

    signature = "fake-sig"

    def __init__(self, warm=None):
        self.warm = warm
        self.put_calls = []

    def get_result(self, identity, config):
        return self.warm

    def put_result(self, identity, config, result):
        self.put_calls.append((config.kind, identity.spec.alias, result))


class TestDiskLane:
    def test_warm_key_never_takes_a_pool_slot(self, monkeypatch):
        def bomb(alias, scale, entries, anim_payload=None, store=None):
            raise AssertionError("disk-warm job reached the pool")
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            bomb)
        disk = FakeDisk(warm=make_result())

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.state == DONE and job.lane == "disk"
            payload = sched.result_payload(job)
            assert result_from_dict(payload["result"]) == make_result()
            assert sched.metrics.value("disk_hits") == 1
            assert sched.metrics.value("batches") == 0

        run_with_scheduler(body, disk=disk)

    def test_every_request_reaches_the_disk_lane(self, monkeypatch):
        """Non-standard knobs are part of the one key, so such requests
        are served from the store like any other."""
        def bomb(alias, scale, entries, anim_payload=None, store=None):
            raise AssertionError("disk-warm job reached the pool")
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            bomb)
        disk = FakeDisk(warm=make_result())

        async def body(sched):
            job, _ = sched.submit(JobRequest(
                alias="GTr", scale=SCALE,
                config=SimulationConfig(include_background=False)))
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.lane == "disk"
            assert sched.metrics.value("disk_hits") == 1

        run_with_scheduler(body, disk=disk)

    def test_cold_miss_writes_through(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)
        disk = FakeDisk(warm=None)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.lane == "pool"
            # Write-through is async; give the executor hop a beat.
            for _ in range(100):
                if disk.put_calls:
                    break
                await asyncio.sleep(0.01)
            assert disk.put_calls == [("tcor", "GTr", make_result())]

        run_with_scheduler(body, disk=disk)

    def test_warm_batch_probes_in_one_executor_round_trip(
            self, monkeypatch):
        # The fast lane costs one thread hand-off per micro-batch, not
        # one per job (the SIM201 fix): three warm submissions in one
        # window must reach the store through a single batched probe.
        def bomb(alias, scale, entries, anim_payload=None, store=None):
            raise AssertionError("disk-warm job reached the pool")
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            bomb)
        probe_batches = []
        single_probe = scheduler_module.schema.probe_disk_batch

        def counting(disk, requests):
            probe_batches.append(list(requests))
            return single_probe(disk, requests)
        monkeypatch.setattr(scheduler_module.schema, "probe_disk_batch",
                            counting)
        disk = FakeDisk(warm=make_result())

        async def body(sched):
            jobs = [sched.submit(request(size=(i + 1) * 128 * KIB))[0]
                    for i in range(3)]
            await asyncio.gather(
                *(asyncio.wait_for(job.done.wait(), 5) for job in jobs))
            assert all(job.state == DONE and job.lane == "disk"
                       for job in jobs)
            assert sched.metrics.value("disk_hits") == 3
            assert len(probe_batches) == 1
            assert len(probe_batches[0]) == 3

        run_with_scheduler(body, disk=disk, batch_window_s=0.1)

    def test_cold_batch_writes_through_in_one_round_trip(
            self, monkeypatch):
        # Write-through is batched the same way: one executor hop
        # stores every record the batch produced.
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)
        store_batches = []
        single_store = scheduler_module.schema.store_disk_batch

        def counting(disk, entries):
            store_batches.append(list(entries))
            return single_store(disk, entries)
        monkeypatch.setattr(scheduler_module.schema, "store_disk_batch",
                            counting)
        disk = FakeDisk(warm=None)

        async def body(sched):
            jobs = [sched.submit(request(size=(i + 1) * 128 * KIB))[0]
                    for i in range(3)]
            await asyncio.gather(
                *(asyncio.wait_for(job.done.wait(), 5) for job in jobs))
            assert all(job.lane == "pool" for job in jobs)
            # Write-through is async; give the executor hop a beat.
            for _ in range(100):
                if len(disk.put_calls) == 3:
                    break
                await asyncio.sleep(0.01)
            assert len(store_batches) == 1
            assert len(store_batches[0]) == 3
            assert len(disk.put_calls) == 3

        run_with_scheduler(body, disk=disk, batch_window_s=0.1)

    def test_drain_waits_for_the_write_through(self, monkeypatch):
        """The SIGTERM path: drain() then close() must leave the record
        of a job already answered ``done`` in the store.  Here the
        write-through waits in the executor's queue behind a blocker
        released after 0.3 s; a drain that returned as soon as the job
        was done let close() cancel it there."""
        executor = ThreadPoolExecutor(max_workers=1)
        unblock = threading.Event()

        def worker(alias, scale, entries, anim_payload=None, store=None):
            executor.submit(unblock.wait, 5)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)
        disk = FakeDisk(warm=None)

        async def body(sched):
            loop = asyncio.get_running_loop()
            loop.set_default_executor(executor)
            loop.call_later(0.3, unblock.set)
            job, _ = sched.submit(request())
            assert await sched.drain(timeout_s=5) == 1
            await sched.close()
            assert job.state == DONE
            assert disk.put_calls == [("tcor", "GTr", make_result())]

        try:
            run_with_scheduler(body, disk=disk)
        finally:
            unblock.set()

    def test_scheduler_key_carries_the_disk_signature(self):
        with_disk = Scheduler(disk=FakeDisk())
        without = Scheduler()
        req = request()
        key_a = scheduler_module.schema.request_key(
            req, with_disk.signature)
        key_b = scheduler_module.schema.request_key(req, without.signature)
        assert with_disk.signature == "fake-sig"
        assert key_a != key_b
