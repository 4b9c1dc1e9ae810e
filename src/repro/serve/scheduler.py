"""Cache-aware micro-batching scheduler over the PR 2 process pool.

The scheduler sees the whole queue of pending simulation requests —
the serving-side analogue of the paper's Tile Fetcher, which exploits
a fully known future access stream to schedule the memory hierarchy
optimally.  That foresight buys four things a one-shot CLI cannot
have:

- **coalescing** — identical request keys share one in-flight future
  (the *Rendering Elimination* early-discard idea applied to compute:
  redundant in-flight work is detected by identity, not recomputed);
- **micro-batching** — compatible jobs (same benchmark alias, scale
  and animation) are grouped into one pool call so the compiled trace
  is found once per batch, exactly like the parallel engine's
  per-alias fan-out;
- **cache-aware ordering** — requests whose keys are warm in the
  disk store are served from a fast lane without ever occupying a
  pool slot, finished results feed an in-memory memo so repeats are
  instant, and pool batches load compiled traces from the same store
  instead of rebuilding the workload;
- **admission control** — a bounded queue rejects overload with a
  typed 429-style error instead of accepting unbounded latency.

Robustness: per-job timeouts with bounded exponential-backoff retry,
a watchdog that cancels overdue batches and recycles a wedged worker
pool, and a graceful drain that finishes queued + in-flight work
while rejecting new submissions (the SIGTERM path of ``tcor-serve``).

Everything here runs on one event loop; the only threads involved are
the executor bridges (``run_in_executor``) for pool batches and disk
I/O.  Public entry points: :meth:`Scheduler.submit`,
:meth:`Scheduler.status`, :meth:`Scheduler.wait`,
:meth:`Scheduler.result_payload`, :meth:`Scheduler.drain`,
:meth:`Scheduler.close`.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor

from repro.parallel.store import result_from_dict, result_to_dict
from repro.serve import schema
from repro.serve.metrics import ServeMetrics
from repro.serve.schema import JobRequest, JobStatus, ServeError
from repro.serve.worker import simulate_request_batch

DEFAULT_QUEUE_LIMIT = 64
DEFAULT_BATCH_WINDOW_S = 0.02
DEFAULT_BATCH_MAX = 8
DEFAULT_TIMEOUT_S = 600.0
DEFAULT_MAX_ATTEMPTS = 2
DEFAULT_RETRY_BACKOFF_S = 0.05
DEFAULT_WATCHDOG_INTERVAL_S = 1.0
DEFAULT_MEMO_LIMIT = 512


class Job:
    """One admitted request's lifecycle (scheduler-internal)."""

    __slots__ = ("key", "request", "state", "lane", "attempts",
                 "coalesced", "error", "record", "created_s",
                 "started_s", "finished_s", "done")

    def __init__(self, key: str, request: JobRequest) -> None:
        self.key = key
        self.request = request
        self.state = schema.QUEUED
        self.lane: str | None = None
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
                         running_for_s=running_for)


class Scheduler:
    """Admission control + micro-batching over one worker pool."""

    def __init__(self, *, jobs: int = 2,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
                 batch_max: int = DEFAULT_BATCH_MAX,
                 disk=None,
                 metrics: ServeMetrics | None = None,
                 default_timeout_s: float = DEFAULT_TIMEOUT_S,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
                 watchdog_interval_s: float = DEFAULT_WATCHDOG_INTERVAL_S,
                 memo_limit: int = DEFAULT_MEMO_LIMIT,
                 executor_factory=None,
                 name: str | None = None) -> None:
        self.jobs = max(1, int(jobs))
        # Provenance: a named scheduler (one shard of a cluster) stamps
        # its name into every result as ``served_by``.
        self.name = name
        self.queue_limit = max(1, int(queue_limit))
        self.batch_window_s = batch_window_s
        self.batch_max = max(1, int(batch_max))
        self.disk = disk
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.default_timeout_s = default_timeout_s
        self.max_attempts = max(1, int(max_attempts))
        self.retry_backoff_s = retry_backoff_s
        self.watchdog_interval_s = watchdog_interval_s
        self.memo_limit = max(1, int(memo_limit))
        self._executor_factory = executor_factory
        # The request key carries the simulator-code signature exactly
        # when a disk store (which already computed it) is attached;
        # an in-memory-only scheduler keys on the payload alone.
        self.signature = getattr(disk, "signature", "") or ""
        self.draining = False
        self._closed = False
        self._jobs: dict[str, Job] = {}
        self._finished: OrderedDict[str, None] = OrderedDict()
        self._queues: dict[str, deque[Job]] = {
            priority: deque() for priority in schema.PRIORITIES}
        self._active = 0
        self._inflight_jobs = 0
        self._inflight: dict[asyncio.Task, float] = {}
        self._pool = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._batcher: asyncio.Task | None = None
        self._watchdog: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------
    def _make_pool(self):
        if self._executor_factory is not None:
            return self._executor_factory(self.jobs)
        return ProcessPoolExecutor(max_workers=self.jobs)

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._pool = self._make_pool()
        self._wake = asyncio.Event()
        self._batcher = asyncio.create_task(self._batch_loop())
        self._watchdog = asyncio.create_task(self._watch_loop())

    async def drain(self, timeout_s: float | None = None) -> int:
        """Stop admitting, finish queued and in-flight jobs.

        Returns the number of jobs that were still live when the drain
        began.  Jobs that do not finish within ``timeout_s`` are left
        to :meth:`close` to cancel.
        """
        self.draining = True
        self.metrics.decision("drain")
        live = [job for job in self._jobs.values()
                if job.state not in schema.TERMINAL_STATES]
        if self._wake is not None:
            self._wake.set()
        if live:
            waits = asyncio.gather(
                *(job.done.wait() for job in live))
            try:
                await asyncio.wait_for(waits, timeout_s)
            except asyncio.TimeoutError:
                pass  # whatever is left is close()'s to cancel
        drained = sum(1 for job in live
                      if job.state in schema.TERMINAL_STATES)
        self.metrics.count("drained", drained)
        return len(live)

    async def close(self) -> None:
        """Hard stop: cancel loops and in-flight batches, fail every
        job still live, shut the pool down without waiting."""
        self.draining = True
        self._closed = True
        for task in (self._batcher, self._watchdog):
            if task is not None:
                task.cancel()
        for task in list(self._inflight):
            task.cancel()
        pending = [task for task in (self._batcher, self._watchdog)
                   if task is not None]
        pending += list(self._inflight)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for job in list(self._jobs.values()):
            if job.state not in schema.TERMINAL_STATES:
                self._finish(job, schema.CANCELLED,
                             error="scheduler closed")
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)

    # -- submission ----------------------------------------------------
    def submit(self, request: JobRequest) -> tuple[Job, bool]:
        """Admit one request; returns ``(job, reused)``.

        ``reused`` is true when the submission coalesced onto an
        in-flight job or hit the memo of a finished one.  Raises
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
                                      lane=existing.lane)
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
        job = Job(key, request)
        self._jobs[key] = job
        self._queues[request.priority].append(job)
        self._active += 1
        self.metrics.count("accepted")
        self.metrics.decision("enqueue", key=key)
        self._pulse()
        if self._wake is not None:
            self._wake.set()
        return job, False

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
                   "served_by": self.name}
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
        return {"active": self._active, "pending": self._pending_count(),
                "inflight": self._inflight_jobs, "states": states}

    # -- internals -----------------------------------------------------
    def _pending_count(self) -> int:
        return sum(1 for queue in self._queues.values()
                   for job in queue if job.state == schema.QUEUED)

    def _pulse(self) -> None:
        self.metrics.gauge("queue_depth", self._pending_count())
        self.metrics.gauge("inflight", self._inflight_jobs)
        self.metrics.gauge("active", self._active)

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
            self.metrics.decision("complete", key=job.key, lane=job.lane)
        else:
            self.metrics.count("failed")
            self.metrics.decision("fail", key=job.key, lane=job.lane)
        job.done.set()
        self._finished[job.key] = None
        while len(self._finished) > self.memo_limit:
            stale, _ = self._finished.popitem(last=False)
            self._jobs.pop(stale, None)
        self._pulse()

    def _take_batch(self) -> list[Job]:
        """Up to ``batch_max`` queued jobs sharing the head job's
        (alias, scale), interactive lane first within the group."""
        head: Job | None = None
        for priority in schema.PRIORITIES:
            queue = self._queues[priority]
            while queue and queue[0].state != schema.QUEUED:
                queue.popleft()
            if queue:
                head = queue[0]
                break
        if head is None:
            return []
        # The animation recipe is part of batch compatibility: a batch
        # shares one workload build, and an animated workload is a
        # different (multi-frame) build per AnimationSpec.
        group = (head.request.alias, head.request.scale,
                 head.request.anim)
        batch: list[Job] = []
        for priority in schema.PRIORITIES:
            queue = self._queues[priority]
            kept: deque[Job] = deque()
            while queue:
                job = queue.popleft()
                if job.state != schema.QUEUED:
                    continue
                if (len(batch) < self.batch_max
                        and (job.request.alias, job.request.scale,
                             job.request.anim) == group):
                    batch.append(job)
                else:
                    kept.append(job)
            queue.extend(kept)
        return batch

    async def _batch_loop(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            if not self._pending_count():
                continue
            if self.batch_window_s > 0:
                # The micro-batching window: let near-simultaneous
                # compatible submissions (and duplicates) land before
                # the group is cut.
                await asyncio.sleep(self.batch_window_s)
            while True:
                batch = self._take_batch()
                if not batch:
                    break
                cold = await self._serve_warm(batch)
                if cold:
                    self._dispatch(cold)
            self._pulse()

    async def _serve_warm(self, batch: list[Job]) -> list[Job]:
        """The disk-warm fast lane: complete cache hits immediately,
        return the jobs that actually need a pool slot.

        The whole batch is probed in *one* executor round-trip and the
        hits are finished in one synchronous sweep afterwards, so the
        job population mutates atomically between suspension points
        (SIM202 discipline) and the fast lane costs one thread
        hand-off per batch instead of one per job (SIM201's fix)."""
        if self.disk is None:
            return batch
        assert self._loop is not None
        hits = await self._loop.run_in_executor(
            None, schema.probe_disk_batch, self.disk,
            [job.request for job in batch])
        cold: list[Job] = []
        for job, hit in zip(batch, hits):
            if job.state != schema.QUEUED:
                # close()/drain raced the probe and already finished
                # this job; neither dispatch nor double-finish it.
                continue
            if hit is None:
                cold.append(job)
                continue
            self.metrics.count("disk_hits")
            self.metrics.decision("disk_hit", key=job.key, lane="disk")
            record = {"key": job.key, "result": result_to_dict(hit),
                      "metrics": {}, "invariant_failures": []}
            self._finish(job, schema.DONE, record=record, lane="disk")
        return cold

    def _dispatch(self, batch: list[Job]) -> None:
        timeout = max((job.request.timeout_s or self.default_timeout_s)
                      for job in batch)
        task = asyncio.create_task(self._run_batch(batch, timeout))
        # Watchdog deadline: generous past the wait_for timeout, so it
        # only fires when the batch task itself is wedged.
        self._inflight[task] = (time.monotonic() + timeout
                                + 2 * self.watchdog_interval_s)
        task.add_done_callback(
            lambda done: self._inflight.pop(done, None))

    async def _run_batch(self, batch: list[Job], timeout: float) -> None:
        assert self._loop is not None
        request0 = batch[0].request
        now = time.monotonic()
        for job in batch:
            job.state = schema.RUNNING
            job.started_s = now
            job.attempts += 1
        self._inflight_jobs += len(batch)
        self.metrics.count("batches")
        self.metrics.count("batch_jobs", len(batch))
        self.metrics.observe_batch(len(batch))
        self.metrics.decision("dispatch", lane="pool", jobs=len(batch))
        self._pulse()
        entries = tuple(
            (job.key, schema.config_to_payload(job.request.config))
            for job in batch)
        anim_payload = (schema.anim_to_payload(request0.anim)
                        if request0.anim is not None else None)
        pool = self._pool
        try:
            records = await asyncio.wait_for(
                self._loop.run_in_executor(
                    pool, simulate_request_batch,
                    request0.alias, request0.scale, entries,
                    anim_payload, self.disk),
                timeout)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            # Timeout, watchdog cancellation, or close(): the worker
            # may still be crunching a job nobody wants — recycle the
            # pool so the slot comes back, then retry the batch's jobs
            # on the fresh pool (up to their attempt budget).
            self.metrics.count("timeouts")
            self.metrics.decision("timeout", jobs=len(batch))
            self._recycle_pool(pool)
            for job in batch:
                self._retry_or_fail(
                    job, schema.TIMEOUT,
                    f"batch timed out after {timeout:g}s")
        except Exception as exc:
            # Pool-level failure (BrokenProcessPool, pickling): the
            # simulation itself may be fine, so retry is worthwhile.
            self.metrics.decision("fail", jobs=len(batch))
            for job in batch:
                self._retry_or_fail(
                    job, schema.FAILED,
                    f"{type(exc).__name__}: {exc}")
        else:
            # Completion is one synchronous sweep: every job in the
            # batch reaches its terminal state with no await between,
            # so status()/counts() readers never observe a
            # half-finished batch, and the memo/_jobs maps mutate
            # atomically on the loop.  Disk write-through happens
            # after, in one executor round-trip for the whole batch.
            by_key = {record["key"]: record for record in records}
            finished: list[tuple[Job, dict]] = []
            for job in batch:
                record = by_key.get(job.key)
                if record is None:
                    self._retry_or_fail(job, schema.FAILED,
                                        "worker returned no record")
                elif record.get("error"):
                    # Deterministic simulation failure: retrying would
                    # reproduce it bit-for-bit, so fail immediately.
                    self._finish(job, schema.FAILED,
                                 error=record["error"])
                else:
                    self._finish(job, schema.DONE, record=record,
                                 lane="pool")
                    finished.append((job, record))
            await self._write_through_batch(finished)
        finally:
            self._inflight_jobs -= len(batch)
            self._pulse()

    async def _write_through_batch(
            self, finished: list[tuple[Job, dict]]) -> None:
        if self.disk is None or not finished:
            return
        assert self._loop is not None
        entries = [(job.request, result_from_dict(record["result"]))
                   for job, record in finished]
        await self._loop.run_in_executor(
            None, schema.store_disk_batch, self.disk, entries)

    def _retry_or_fail(self, job: Job, final_state: str,
                       message: str) -> None:
        if job.attempts >= self.max_attempts or self._closed:
            self._finish(job, final_state, error=message)
            return
        self.metrics.count("retries")
        self.metrics.decision("retry", key=job.key)
        job.state = schema.QUEUED
        job.started_s = None
        delay = self.retry_backoff_s * (2 ** max(0, job.attempts - 1))
        assert self._loop is not None
        self._loop.call_later(delay, self._requeue, job)

    def _requeue(self, job: Job) -> None:
        if job.state != schema.QUEUED:
            return
        if self._closed:
            self._finish(job, schema.CANCELLED,
                         error="scheduler closed")
            return
        self._queues[job.request.priority].append(job)
        if self._wake is not None:
            self._wake.set()

    def _recycle_pool(self, pool) -> None:
        if pool is None:
            return
        if pool is self._pool and not self._closed:
            self._pool = self._make_pool()
            self.metrics.count("pool_recycles")
            self.metrics.decision("recycle")
        pool.shutdown(wait=False, cancel_futures=True)

    async def _watch_loop(self) -> None:
        """Self-healing backstop: re-kick the batcher if pending work
        sits idle (a lost wakeup), and cancel any batch task that
        overran its deadline — the cancellation funnels into
        :meth:`_run_batch`'s timeout path, which recycles the pool."""
        while True:
            await asyncio.sleep(self.watchdog_interval_s)
            if self._pending_count() and self._wake is not None:
                self._wake.set()
            now = time.monotonic()
            for task, deadline in list(self._inflight.items()):
                if now > deadline and not task.done():
                    self.metrics.count("watchdog_cancels")
                    self.metrics.decision("recycle")
                    task.cancel()
