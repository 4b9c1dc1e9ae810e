"""Cache-aware micro-batching scheduler over the PR 2 process pool.

The scheduler sees the whole queue of pending simulation requests —
the serving-side analogue of the paper's Tile Fetcher, which exploits
a fully known future access stream to schedule the memory hierarchy
optimally.  On top of the job table it shares with the cluster router
(:class:`~repro.serve.jobs.JobTable`: admission control, in-flight
coalescing, the finished-job memo and the graceful drain), that
foresight buys:

- **micro-batching** — compatible jobs (same benchmark alias, scale
  and animation) are grouped into one pool call so the compiled trace
  is found once per batch, exactly like the parallel engine's
  per-alias fan-out;
- **cache-aware ordering** — requests whose keys are warm in the
  disk store are served from a fast lane without ever occupying a
  pool slot, pool results write through to the store, and pool
  batches load compiled traces from the same store instead of
  rebuilding the workload;
- **priority lanes** — the next batch is cut from the head of the
  ``interactive`` lane before ``batch``.

Robustness: per-job timeouts with bounded exponential-backoff retry,
and a watchdog that cancels overdue batches and recycles a wedged
worker pool.

Everything here runs on one event loop; the only threads involved are
the executor bridges (``run_in_executor``) for pool batches and disk
I/O.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor

from repro.parallel.store import result_from_dict
from repro.serve import schema
from repro.serve.jobs import Job, JobTable
from repro.serve.metrics import ServeMetrics
from repro.serve.worker import simulate_request_batch

DEFAULT_QUEUE_LIMIT = 64
DEFAULT_BATCH_WINDOW_S = 0.02
DEFAULT_BATCH_MAX = 8
DEFAULT_TIMEOUT_S = 600.0
DEFAULT_MAX_ATTEMPTS = 2
DEFAULT_RETRY_BACKOFF_S = 0.05
DEFAULT_WATCHDOG_INTERVAL_S = 1.0
DEFAULT_MEMO_LIMIT = 512


class Scheduler(JobTable):
    """Micro-batching over one worker pool, behind the shared job
    table's admission, coalescing and memo."""

    role = "scheduler"

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
        # Provenance: a named scheduler (one shard of a cluster) stamps
        # its name into every result as ``served_by``.
        super().__init__(metrics if metrics is not None else ServeMetrics(),
                         queue_limit=queue_limit, memo_limit=memo_limit,
                         disk=disk, name=name)
        self.jobs = max(1, int(jobs))
        self.batch_window_s = batch_window_s
        self.batch_max = max(1, int(batch_max))
        self.default_timeout_s = default_timeout_s
        self.max_attempts = max(1, int(max_attempts))
        self.retry_backoff_s = retry_backoff_s
        self.watchdog_interval_s = watchdog_interval_s
        self._executor_factory = executor_factory
        self._queues: dict[str, deque[Job]] = {
            priority: deque() for priority in schema.PRIORITIES}
        self._pool = None
        self._wake: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------
    def _make_pool(self):
        if self._executor_factory is not None:
            return self._executor_factory(self.jobs)
        return ProcessPoolExecutor(max_workers=self.jobs)

    async def start(self) -> None:
        await super().start()
        self._pool = self._make_pool()
        self._wake = asyncio.Event()
        self._loops = [asyncio.create_task(self._batch_loop()),
                       asyncio.create_task(self._watch_loop())]

    async def close(self) -> None:
        """Hard stop: cancel loops and in-flight batches, fail every
        job still live, shut the pool down without waiting."""
        await super().close()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)

    def _admit(self, job: Job) -> None:
        self._queues[job.request.priority].append(job)
        self.metrics.decision("enqueue", key=job.key)
        self._pulse()
        if self._wake is not None:
            self._wake.set()

    def counts(self) -> dict:
        return {**super().counts(), "pending": self._pending_count()}

    # -- internals -----------------------------------------------------
    def _pending_count(self) -> int:
        return sum(1 for queue in self._queues.values()
                   for job in queue if job.state == schema.QUEUED)

    def _pulse(self) -> None:
        self.metrics.gauge("queue_depth", self._pending_count())
        super()._pulse()

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
        hits, cold = await self._probe_store(batch)
        for job, record in hits:
            self.metrics.count("disk_hits")
            self.metrics.decision("disk_hit", key=job.key, lane="disk")
            self._finish(job, schema.DONE, record=record, lane="disk")
        return cold

    def _dispatch(self, batch: list[Job]) -> None:
        timeout = max((job.request.timeout_s or self.default_timeout_s)
                      for job in batch)
        # Watchdog deadline: generous past the wait_for timeout, so it
        # only fires when the batch task itself is wedged.
        self._spawn(self._run_batch(batch, timeout),
                    time.monotonic() + timeout
                    + 2 * self.watchdog_interval_s)

    async def _run_batch(self, batch: list[Job], timeout: float) -> None:
        assert self._loop is not None
        request0 = batch[0].request
        now = time.monotonic()
        for job in batch:
            job.state = schema.RUNNING
            job.started_s = now
            job.attempts += 1
        self.metrics.count("batches")
        self.metrics.count("batch_jobs", len(batch))
        self.metrics.observe_batch(len(batch))
        self.metrics.decision("dispatch", lane="pool", jobs=len(batch))
        self._track_inflight(len(batch))
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
            self._track_inflight(-len(batch))

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
            for task, deadline in list(self._tasks.items()):
                if now > deadline and not task.done():
                    self.metrics.count("watchdog_cancels")
                    self.metrics.decision("recycle")
                    task.cancel()
