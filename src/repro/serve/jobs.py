"""The job lifecycle both serving front ends share.

:class:`JobTable` is everything :class:`~repro.serve.scheduler.Scheduler`
and :class:`~repro.serve.cluster.Router` do with a request apart from
computing it: admission (the queue limit and draining), in-flight
coalescing by request key, the finished-job memo, the server surface
(:meth:`~JobTable.status`, :meth:`~JobTable.wait`,
:meth:`~JobTable.result_payload`, :meth:`~JobTable.counts`), the
graceful drain, and the step of close that fails whatever is still
live.  A subclass decides only where an admitted job's result comes
from (:meth:`~JobTable._admit`): the scheduler batches it onto its
worker pool, the router forwards it to a shard.

Coalescing is Rendering Elimination's early discard by identity applied
to requests: a submission whose key matches live work joins that job
instead of being computed again, and one whose key matches a finished
job is answered from the memo.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import OrderedDict

from repro.parallel.store import result_to_dict
from repro.serve import schema
from repro.serve.metrics import ServeMetrics
from repro.serve.schema import JobRequest, JobStatus, ServeError


class Job:
    """One admitted request's lifecycle.

    ``shard`` is the backend a router job was (last) forwarded to, and
    ``served_by`` the name of the process that computed the result;
    both stay ``None`` where they do not apply.
    """

    __slots__ = ("key", "request", "state", "lane", "shard", "served_by",
                 "attempts", "coalesced", "error", "record", "created_s",
                 "started_s", "finished_s", "done")

    def __init__(self, key: str, request: JobRequest,
                 served_by: str | None = None) -> None:
        self.key = key
        self.request = request
        self.state = schema.QUEUED
        self.lane: str | None = None
        self.shard: str | None = None
        self.served_by = served_by
        self.attempts = 0
        self.coalesced = 0
        self.error: str | None = None
        self.record: dict | None = None
        self.created_s = time.monotonic()
        self.started_s: float | None = None
        self.finished_s: float | None = None
        self.done = asyncio.Event()

    def status(self) -> JobStatus:
        now = time.monotonic()
        queued_for = (self.started_s or self.finished_s or now) \
            - self.created_s
        running_for = 0.0
        if self.started_s is not None:
            running_for = (self.finished_s or now) - self.started_s
        return JobStatus(job_id=self.key, state=self.state,
                         priority=self.request.priority, lane=self.lane,
                         attempts=self.attempts, coalesced=self.coalesced,
                         error=self.error, queued_for_s=queued_for,
                         running_for_s=running_for, shard=self.shard)


class JobTable:
    """Admitted jobs by request key, live and recently finished.

    ``disk`` is the shared :class:`~repro.parallel.store.DiskCache` or
    ``None``; ``name`` is stamped into every result as ``served_by``.
    Everything runs on one event loop, so the tables mutate only
    between suspension points.
    """

    # Names the front end in its messages ("scheduler", "router").
    role: str

    def __init__(self, metrics: ServeMetrics, *, queue_limit: int,
                 memo_limit: int, disk=None,
                 name: str | None = None) -> None:
        self.metrics = metrics
        self.queue_limit = max(1, int(queue_limit))
        self.memo_limit = max(1, int(memo_limit))
        self.disk = disk
        self.name = name
        # The request key carries the simulator-code signature exactly
        # when a disk store (which already computed it) is attached; an
        # in-memory-only front end keys on the payload alone.
        self.signature = getattr(disk, "signature", "") or ""
        self.draining = False
        self._closed = False
        self._jobs: dict[str, Job] = {}
        self._finished: OrderedDict[str, None] = OrderedDict()
        self._active = 0
        self._inflight_jobs = 0
        # Tasks working for admitted jobs, each with the deadline past
        # which a watchdog may cancel it; close() cancels them all.
        self._tasks: dict[asyncio.Task, float] = {}
        self._loops: list[asyncio.Task] = []
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()

    async def drain(self, timeout_s: float | None = None) -> int:
        """Stop admitting, finish queued and in-flight jobs.

        Waits, within ``timeout_s``, for every live job and then for
        the tasks still working after their jobs finished (the
        scheduler's disk write-through).  Returns the number of jobs
        that were still live when the drain began; whatever is left
        at the timeout is :meth:`close`'s to cancel.
        """
        self.draining = True
        self.metrics.decision("drain")
        live = [job for job in self._jobs.values()
                if job.state not in schema.TERMINAL_STATES]
        started = time.monotonic()
        if live:
            waits = asyncio.gather(*(job.done.wait() for job in live))
            try:
                await asyncio.wait_for(waits, timeout_s)
            except asyncio.TimeoutError:
                pass  # whatever is left is close()'s to cancel
        if self._tasks:
            remaining = None if timeout_s is None \
                else max(0.0, timeout_s - (time.monotonic() - started))
            await asyncio.wait(list(self._tasks), timeout=remaining)
        drained = sum(1 for job in live
                      if job.state in schema.TERMINAL_STATES)
        self.metrics.count("drained", drained)
        return len(live)

    async def close(self) -> None:
        """Hard stop: cancel the background loops and every task still
        working for a job, then fail each job still live."""
        self.draining = True
        self._closed = True
        pending = self._loops + list(self._tasks)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for job in list(self._jobs.values()):
            if job.state not in schema.TERMINAL_STATES:
                self._finish(job, schema.CANCELLED,
                             error=f"{self.role} closed")

    # -- submission ----------------------------------------------------
    def submit(self, request: JobRequest) -> tuple[Job, bool]:
        """Admit one request; returns ``(job, reused)``.

        ``reused`` is true when the submission coalesced onto a live
        job or hit the memo of a finished one.  Raises
        :class:`ServeError` (``queue_full``/``draining``) on
        rejection.
        """
        key = schema.request_key(request, self.signature)
        self.metrics.count("submitted")
        if request.sequence is not None:
            self.metrics.count("sequence_frames")
        self.metrics.decision("submit", key=key)
        existing = self._jobs.get(key)
        if existing is not None:
            if existing.state in (schema.QUEUED, schema.RUNNING):
                existing.coalesced += 1
                self.metrics.count("coalesced")
                self.metrics.decision("coalesce", key=key,
                                      lane=existing.lane,
                                      shard=existing.shard)
                return existing, True
            if existing.state == schema.DONE:
                self.metrics.count("memo_hits")
                self.metrics.decision("memo_hit", key=key, lane="memo")
                return existing, True
            # Failed/timed-out/cancelled keys may be resubmitted: fall
            # through and replace the stale entry with a fresh job.
            self._finished.pop(key, None)
        if self.draining:
            self.metrics.count("rejected.draining")
            self.metrics.decision("reject", key=key)
            raise ServeError.draining()
        if self._active >= self.queue_limit:
            self.metrics.count("rejected.queue_full")
            self.metrics.decision("reject", key=key)
            raise ServeError.queue_full(self.queue_limit)
        job = Job(key, request, served_by=self.name)
        self._jobs[key] = job
        self._active += 1
        self.metrics.count("accepted")
        self._admit(job)
        return job, False

    def _admit(self, job: Job) -> None:
        """Start producing a newly admitted job's result."""
        raise NotImplementedError

    # -- queries -------------------------------------------------------
    def status(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError.not_found(job_id)
        return job

    async def wait(self, job_id: str,
                   timeout_s: float | None = None) -> Job:
        job = self.status(job_id)
        try:
            await asyncio.wait_for(job.done.wait(), timeout_s)
        except asyncio.TimeoutError:
            raise ServeError.wait_timeout(job_id, timeout_s or 0.0) \
                from None
        return job

    def result_payload(self, job: Job) -> dict:
        """The :class:`~repro.serve.schema.JobResult` wire payload."""
        elapsed = ((job.finished_s or time.monotonic())
                   - job.created_s)
        payload = {"id": job.key, "state": job.state, "lane": job.lane,
                   "attempts": job.attempts,
                   "elapsed_s": elapsed, "result": None, "metrics": {},
                   "invariant_failures": [], "error": job.error,
                   "shard": job.shard, "served_by": job.served_by}
        if job.record is not None:
            payload["result"] = job.record.get("result")
            payload["metrics"] = job.record.get("metrics", {})
            payload["invariant_failures"] = job.record.get(
                "invariant_failures", [])
        return payload

    def counts(self) -> dict:
        """Live job-population counts (the ``/healthz`` body)."""
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {"active": self._active, "inflight": self._inflight_jobs,
                "states": states}

    # -- internals -----------------------------------------------------
    def _pulse(self) -> None:
        self.metrics.gauge("inflight", self._inflight_jobs)
        self.metrics.gauge("active", self._active)

    def _track_inflight(self, delta: int) -> None:
        """Adjust the in-flight count and its gauge in one synchronous
        step, so no reader observes it mid-update (SIM202
        discipline)."""
        self._inflight_jobs += delta
        self._pulse()

    def _spawn(self, work, deadline: float = math.inf) -> None:
        """Run the coroutine ``work`` as a task that :meth:`drain` waits
        for and :meth:`close` cancels."""
        assert self._loop is not None, f"{self.role} not started"
        task = self._loop.create_task(work)
        self._tasks[task] = deadline
        task.add_done_callback(lambda done: self._tasks.pop(done, None))

    async def _probe_store(self, jobs: list[Job]
                           ) -> tuple[list[tuple[Job, dict]], list[Job]]:
        """Look ``jobs`` up in the disk store in one executor round
        trip; returns the hits as ``(job, record)`` and the misses.

        A job that close() finished during the probe is in neither
        list, so it is neither dispatched nor finished twice."""
        if self.disk is None:
            return [], jobs
        assert self._loop is not None
        results = await self._loop.run_in_executor(
            None, schema.probe_disk_batch, self.disk,
            [job.request for job in jobs])
        hits: list[tuple[Job, dict]] = []
        misses: list[Job] = []
        for job, result in zip(jobs, results):
            if job.state in schema.TERMINAL_STATES:
                continue
            if result is None:
                misses.append(job)
            else:
                # Store records carry no metrics snapshot.
                hits.append((job, {"result": result_to_dict(result),
                                   "metrics": {},
                                   "invariant_failures": []}))
        return hits, misses

    def _finish(self, job: Job, state: str, *, record: dict | None = None,
                lane: str | None = None, error: str | None = None) -> None:
        job.state = state
        job.record = record
        if lane is not None:
            job.lane = lane
        job.error = error
        job.finished_s = time.monotonic()
        self._active -= 1
        if state == schema.DONE:
            self.metrics.count("completed")
            self.metrics.observe_latency(job.finished_s - job.created_s)
            self.metrics.decision("complete", key=job.key, lane=job.lane,
                                  shard=job.shard)
        else:
            self.metrics.count("failed")
            self.metrics.decision("fail", key=job.key, lane=job.lane,
                                  shard=job.shard)
        job.done.set()
        self._finished[job.key] = None
        while len(self._finished) > self.memo_limit:
            stale, _ = self._finished.popitem(last=False)
            self._jobs.pop(stale, None)
        self._pulse()
