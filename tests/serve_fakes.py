"""Fakes that compute the serving front ends' jobs in tests.

:class:`ScriptedBackend` stands for whatever computes a front end's
jobs, so one test body drives a :class:`Scheduler` (pool worker
replaced, pool swapped for threads) and a :class:`Router` (its wire
call to the shards replaced) the same way: the backend holds every
computation until ``release`` is set, and fails the next ``failures``
computations deterministically.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.parallel import result_to_dict
from repro.serve import schema
from repro.serve import scheduler as scheduler_module
from repro.serve.cluster import Router
from repro.serve.scheduler import Scheduler
from repro.tcor.system import SystemResult

RESULT = SystemResult(label="tcor", alias="GTr", pb_l2_reads=11,
                      mm_reads=3, structure_accesses={"l2": 42})


class ScriptedBackend:
    def __init__(self) -> None:
        self.release = threading.Event()
        self.release.set()
        self.failures = 0
        self.computed = 0

    def outcome(self) -> str | None:
        """Count one computation; its scripted error, if any."""
        self.computed += 1
        if self.failures:
            self.failures -= 1
            return "ValueError: scripted failure"
        return None


def make_scheduler(backend: ScriptedBackend, monkeypatch,
                   **kwargs) -> Scheduler:
    def worker(alias, scale, entries, anim_payload=None, store=None):
        backend.release.wait(10)
        records = []
        for key, _config in entries:
            error = backend.outcome()
            records.append(
                {"key": key, "error": error} if error else
                {"key": key, "result": result_to_dict(RESULT),
                 "metrics": {}, "invariant_failures": []})
        return records

    monkeypatch.setattr(scheduler_module, "simulate_request_batch", worker)
    kwargs.setdefault("executor_factory",
                      lambda jobs: ThreadPoolExecutor(max_workers=jobs))
    kwargs.setdefault("batch_window_s", 0.01)
    return Scheduler(**kwargs)


def make_router(backend: ScriptedBackend, monkeypatch, **kwargs) -> Router:
    router = Router(["127.0.0.1:9"], **kwargs)

    async def backend_call(shard, payload):
        if payload["op"] == "healthz":
            return {"ok": True, "schema_version": schema.SCHEMA_VERSION}
        while not backend.release.is_set():
            await asyncio.sleep(0.005)
        error = backend.outcome()
        return {"ok": True, "result": {
            "state": schema.FAILED if error else schema.DONE,
            "lane": "pool", "error": error, "served_by": shard.name,
            "result": None if error else result_to_dict(RESULT),
            "metrics": {}, "invariant_failures": []}}

    monkeypatch.setattr(router, "_backend_call", backend_call)
    return router


def run_started(front, body):
    """``await body(front)`` on a fresh loop with ``front`` started,
    closing it afterwards."""
    async def main():
        await front.start()
        try:
            return await body(front)
        finally:
            await front.close()

    return asyncio.run(main())


async def finished(job, timeout_s: float = 10.0):
    await asyncio.wait_for(job.done.wait(), timeout_s)
    return job
