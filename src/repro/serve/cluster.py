"""The cluster front end: consistent-hash routing over tcor-serve shards.

:class:`Router` scales the single-process service horizontally while
keeping every serving guarantee intact.  It duck-types the scheduler
interface :class:`~repro.serve.server.SimulationServer` speaks, so the
exact same front door (NDJSON + HTTP on one port, typed errors,
``/metrics``) runs in front of a whole cluster:

- **key-affinity sharding** — each request key is owned by one backend
  via the :class:`~repro.serve.ring.HashRing`, so a key's repeats land
  where its memo and disk records already are (warm shards are the
  point: per-shard residency is what inter-frame reuse workloads
  exploit);
- **cluster-wide coalescing** — identical keys share one router job no
  matter which client or connection submitted them, on top of each
  backend's own in-flight coalescing;
- **tiered result cache** — a bounded in-memory LRU at the router
  (:class:`~repro.serve.tiers.MemoryTier`) in front of the shared
  concurrent-writer-safe :class:`~repro.parallel.store.DiskCache`;
  hot keys are answered without suspending, warm keys without
  forwarding, and only cold keys cost a shard round trip;
- **membership & failure handling** — periodic ``healthz`` probes with
  wire-schema version negotiation; a backend that misses
  ``fail_threshold`` consecutive probes (or errors mid-forward) is
  taken off the ring, its in-flight forwards requeue onto surviving
  shards (zero lost jobs), and it is re-probed with exponential
  backoff until it answers again — at which point the ring remaps its
  arcs back.

Forwards are one NDJSON round trip per job on a fresh connection
(``submit`` + ``wait`` inline), so a slow simulation never blocks an
unrelated job's response, and a died-mid-job backend surfaces as a
connection error the retry loop converts into a failover.  Everything
runs on one event loop; blocking work (the disk tier) goes through an
executor, mirroring the single-node scheduler's discipline.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict

from repro.serve import schema
from repro.serve.metrics import ClusterMetrics
from repro.serve.ring import DEFAULT_REPLICAS, HashRing
from repro.serve.schema import JobRequest, JobStatus, ServeError
from repro.serve.tiers import TieredResultCache

DEFAULT_QUEUE_LIMIT = 1024
DEFAULT_MEMO_LIMIT = 2048
DEFAULT_PROBE_INTERVAL_S = 1.0
DEFAULT_FAIL_THRESHOLD = 2
DEFAULT_RECONNECT_BACKOFF_S = 0.5
DEFAULT_RECONNECT_BACKOFF_MAX_S = 30.0
DEFAULT_CONNECT_TIMEOUT_S = 5.0
DEFAULT_FORWARD_TIMEOUT_S = 600.0
DEFAULT_FORWARD_ATTEMPTS = 4
DEFAULT_RETRY_BACKOFF_S = 0.05
DEFAULT_NO_BACKEND_WAIT_S = 10.0

# Backend-reported error codes worth retrying on another pass: the
# shard was healthy enough to answer, just not to take the job now.
_RETRYABLE_CODES = frozenset({"queue_full", "draining", "timeout"})

MAX_LINE_BYTES = 1 << 20


class Backend:
    """One shard's live state as the router sees it."""

    __slots__ = ("name", "host", "port", "up", "failures", "inflight",
                 "backoff_s", "next_probe_s", "schema_version",
                 "last_error")

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.up = True            # optimistic: probes/forwards correct
        self.failures = 0
        self.inflight = 0
        self.backoff_s = DEFAULT_RECONNECT_BACKOFF_S
        self.next_probe_s = 0.0
        self.schema_version: int | None = None
        self.last_error: str | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def describe(self) -> dict:
        return {"address": self.address, "up": self.up,
                "inflight": self.inflight, "failures": self.failures,
                "schema_version": self.schema_version,
                "error": self.last_error}


def parse_backends(spec) -> list[Backend]:
    """Backends from a membership document.

    Accepts a plain list or a ``{"backends": [...]}`` object; each
    entry is ``"host:port"`` or ``{"name": ..., "host": ..., "port":
    ...}`` (``address`` works in place of host/port).  Names default
    to ``shard0``, ``shard1``, ... in listing order — names are what
    the hash ring and the metrics namespace key on, so keep them
    stable across restarts.
    """
    if isinstance(spec, dict):
        entries = spec.get("backends", [])
    else:
        entries = spec
    backends: list[Backend] = []
    seen: set[str] = set()
    for index, entry in enumerate(entries):
        name = f"shard{index}"
        if isinstance(entry, str):
            address = entry
        elif isinstance(entry, dict):
            name = str(entry.get("name", name))
            address = entry.get("address")
            if address is None:
                address = f"{entry.get('host', '127.0.0.1')}:" \
                    f"{entry.get('port')}"
        else:
            raise ServeError.bad_request(
                f"backend entry {index} must be a string or object, "
                f"got {type(entry).__name__}")
        host, _, port = str(address).rpartition(":")
        if not host or not port.isdigit():
            raise ServeError.bad_request(
                f"backend {name!r}: address must be host:port, "
                f"got {address!r}")
        if name in seen:
            raise ServeError.bad_request(
                f"duplicate backend name {name!r}")
        seen.add(name)
        backends.append(Backend(name, host, int(port)))
    if not backends:
        raise ServeError.bad_request("no backends configured")
    return backends


class RouterJob:
    """One admitted request's lifecycle at the router."""

    __slots__ = ("key", "request", "state", "lane", "shard", "served_by",
                 "attempts", "coalesced", "error", "record", "created_s",
                 "started_s", "finished_s", "done")

    def __init__(self, key: str, request: JobRequest) -> None:
        self.key = key
        self.request = request
        self.state = schema.QUEUED
        self.lane: str | None = None
        self.shard: str | None = None
        self.served_by: str | None = None
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


class Router:
    """Consistent-hash front end over N ``tcor-serve`` backends.

    Duck-types the scheduler surface the server needs (``submit`` /
    ``status`` / ``wait`` / ``result_payload`` / ``counts`` /
    ``drain`` / ``close`` / ``metrics`` / ``draining``), so
    ``SimulationServer(Router(...))`` *is* the cluster front door.
    """

    def __init__(self, backends, *,
                 tier: TieredResultCache | None = None,
                 metrics: ClusterMetrics | None = None,
                 replicas: int = DEFAULT_REPLICAS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 memo_limit: int = DEFAULT_MEMO_LIMIT,
                 probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
                 fail_threshold: int = DEFAULT_FAIL_THRESHOLD,
                 reconnect_backoff_s: float = DEFAULT_RECONNECT_BACKOFF_S,
                 reconnect_backoff_max_s: float =
                 DEFAULT_RECONNECT_BACKOFF_MAX_S,
                 connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
                 forward_timeout_s: float = DEFAULT_FORWARD_TIMEOUT_S,
                 max_forward_attempts: int = DEFAULT_FORWARD_ATTEMPTS,
                 retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
                 no_backend_wait_s: float = DEFAULT_NO_BACKEND_WAIT_S
                 ) -> None:
        parsed = backends if all(isinstance(entry, Backend)
                                 for entry in backends) and backends \
            else parse_backends(backends)
        self._backends: dict[str, Backend] = {
            backend.name: backend for backend in parsed}
        self.tier = tier if tier is not None else TieredResultCache()
        self.metrics = metrics if metrics is not None else ClusterMetrics()
        self.ring = HashRing(replicas=replicas)
        self.queue_limit = max(1, int(queue_limit))
        self.memo_limit = max(1, int(memo_limit))
        self.probe_interval_s = probe_interval_s
        self.fail_threshold = max(1, int(fail_threshold))
        self.reconnect_backoff_s = reconnect_backoff_s
        self.reconnect_backoff_max_s = reconnect_backoff_max_s
        self.connect_timeout_s = connect_timeout_s
        self.forward_timeout_s = forward_timeout_s
        self.max_forward_attempts = max(1, int(max_forward_attempts))
        self.retry_backoff_s = retry_backoff_s
        self.no_backend_wait_s = no_backend_wait_s
        self.signature = self.tier.signature
        self.draining = False
        self._closed = False
        self._jobs: dict[str, RouterJob] = {}
        self._finished: OrderedDict[str, None] = OrderedDict()
        self._active = 0
        self._inflight_jobs = 0
        self._routes: dict[asyncio.Task, str] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._membership: asyncio.Event | None = None
        self._prober: asyncio.Task | None = None
        for backend in self._backends.values():
            self.ring.add(backend.name)
            self.metrics.register_shard(backend.name)
        self.metrics.gauge("backends_total", len(self._backends))
        self.metrics.gauge("backends_up", len(self._backends))

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._membership = asyncio.Event()
        self._prober = asyncio.create_task(self._probe_loop())

    async def drain(self, timeout_s: float | None = None) -> int:
        """Stop admitting, let forwarded and queued jobs finish."""
        self.draining = True
        self.metrics.decision("drain")
        live = [job for job in self._jobs.values()
                if job.state not in schema.TERMINAL_STATES]
        if live:
            waits = asyncio.gather(*(job.done.wait() for job in live))
            try:
                await asyncio.wait_for(waits, timeout_s)
            except asyncio.TimeoutError:
                pass  # whatever is left is close()'s to cancel
        drained = sum(1 for job in live
                      if job.state in schema.TERMINAL_STATES)
        self.metrics.count("drained", drained)
        return len(live)

    async def close(self) -> None:
        """Hard stop: cancel the prober and every in-flight forward,
        fail whatever is still live."""
        self.draining = True
        self._closed = True
        pending = [task for task in ([self._prober] + list(self._routes))
                   if task is not None]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for job in list(self._jobs.values()):
            if job.state not in schema.TERMINAL_STATES:
                self._finish(job, schema.CANCELLED, error="router closed")

    # -- submission ----------------------------------------------------
    def submit(self, request: JobRequest) -> tuple[RouterJob, bool]:
        """Admit one request; returns ``(job, reused)``.

        Coalesces onto an identical live job, answers from the memo of
        a finished one or the memory tier without suspending, and
        otherwise spawns the routing task for the cold path.
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
                                      shard=existing.shard)
                return existing, True
            if existing.state == schema.DONE:
                self.metrics.count("memo_hits")
                self.metrics.decision("memo_hit", key=key, lane="memo")
                return existing, True
            self._finished.pop(key, None)
        if self.draining:
            self.metrics.count("rejected.draining")
            self.metrics.decision("reject", key=key)
            raise ServeError.draining()
        if self._active >= self.queue_limit:
            self.metrics.count("rejected.queue_full")
            self.metrics.decision("reject", key=key)
            raise ServeError.queue_full(self.queue_limit)
        job = RouterJob(key, request)
        self._jobs[key] = job
        self._active += 1
        self.metrics.count("accepted")
        self.metrics.gauge("active", self._active)
        record = self.tier.lookup_memory(key)
        if record is not None:
            self.metrics.count("tier.memory_hits")
            self.metrics.decision("tier_hit", key=key, lane="memory")
            self._finish(job, schema.DONE, record=record, lane="memory")
            return job, False
        assert self._loop is not None, "router not started"
        task = self._loop.create_task(self._route_job(job))
        self._routes[task] = key
        task.add_done_callback(
            lambda done: self._routes.pop(done, None))
        return job, False

    # -- queries (server surface) --------------------------------------
    def status(self, job_id: str) -> RouterJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError.not_found(job_id)
        return job

    async def wait(self, job_id: str,
                   timeout_s: float | None = None) -> RouterJob:
        job = self.status(job_id)
        try:
            await asyncio.wait_for(job.done.wait(), timeout_s)
        except asyncio.TimeoutError:
            raise ServeError.wait_timeout(job_id, timeout_s or 0.0) \
                from None
        return job

    def result_payload(self, job: RouterJob) -> dict:
        elapsed = ((job.finished_s or time.monotonic()) - job.created_s)
        payload = {"id": job.key, "state": job.state, "lane": job.lane,
                   "attempts": job.attempts, "elapsed_s": elapsed,
                   "result": None, "metrics": {},
                   "invariant_failures": [], "error": job.error,
                   "shard": job.shard, "served_by": job.served_by}
        if job.record is not None:
            payload["result"] = job.record.get("result")
            payload["metrics"] = job.record.get("metrics", {})
            payload["invariant_failures"] = job.record.get(
                "invariant_failures", [])
        return payload

    def counts(self) -> dict:
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {"role": "router", "active": self._active,
                "inflight": self._inflight_jobs, "states": states,
                "backends": {name: backend.describe() for name, backend
                             in sorted(self._backends.items())},
                "backends_up": sum(1 for backend
                                   in self._backends.values()
                                   if backend.up)}

    # -- routing internals ---------------------------------------------
    def _finish(self, job: RouterJob, state: str, *,
                record: dict | None = None, lane: str | None = None,
                error: str | None = None) -> None:
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
            self.metrics.decision("complete", key=job.key,
                                  shard=job.shard, lane=job.lane)
        else:
            self.metrics.count("failed")
            self.metrics.decision("fail", key=job.key, shard=job.shard,
                                  lane=job.lane)
        self.metrics.gauge("active", self._active)
        job.done.set()
        self._finished[job.key] = None
        while len(self._finished) > self.memo_limit:
            stale, _ = self._finished.popitem(last=False)
            self._jobs.pop(stale, None)

    def _track_inflight(self, delta: int) -> None:
        """Adjust the forwarded-jobs counter and its gauge in one
        synchronous step — atomic between suspension points, so the
        count can never be observed mid-update (SIM202 discipline)."""
        self._inflight_jobs += delta
        self.metrics.gauge("inflight", self._inflight_jobs)

    async def _route_job(self, job: RouterJob) -> None:
        try:
            await self._route_job_inner(job)
        except asyncio.CancelledError:
            if job.state not in schema.TERMINAL_STATES:
                self._finish(job, schema.CANCELLED,
                             error="router closed")
            raise
        except Exception as exc:  # defensive: a routing bug must not
            if job.state not in schema.TERMINAL_STATES:  # hang waiters
                self._finish(job, schema.FAILED,
                             error=f"{type(exc).__name__}: {exc}")

    async def _route_job_inner(self, job: RouterJob) -> None:
        assert self._loop is not None
        record = None
        if self.tier.disk_tier is not None:
            record = await self._loop.run_in_executor(
                None, self.tier.lookup_disk, job.key, job.request)
        if job.state in schema.TERMINAL_STATES:
            return  # close() raced the probe
        if record is not None:
            self.metrics.count("tier.disk_hits")
            self.metrics.decision("tier_hit", key=job.key, lane="disk")
            self._finish(job, schema.DONE, record=record, lane="disk")
            return
        self.metrics.count("tier.misses")
        avoid: set[str] = set()
        while True:
            backend = await self._acquire_backend(job, avoid)
            if backend is None:
                self._finish(job, schema.FAILED,
                             error=ServeError.no_backends().message)
                return
            job.attempts += 1
            job.shard = backend.name
            job.state = schema.RUNNING
            job.started_s = time.monotonic()
            backend.inflight += 1
            self._track_inflight(+1)
            self.metrics.shard_forwarded(backend.name)
            self.metrics.decision("forward", key=job.key,
                                  shard=backend.name)
            try:
                response = await self._forward(backend, job)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, ValueError) as exc:
                self._note_backend_failure(backend, exc)
                self.metrics.count("requeued")
                self.metrics.decision("requeue", key=job.key,
                                      shard=backend.name)
                avoid.add(backend.name)
                if not await self._retry_backoff(job):
                    self._finish(
                        job, schema.FAILED,
                        error=f"forward to {backend.name} failed: "
                              f"{type(exc).__name__}: {exc}")
                    return
                continue
            finally:
                backend.inflight -= 1
                self._track_inflight(-1)
            self._note_backend_success(backend)
            if self._complete_from_response(job, backend, response):
                return
            # Typed, retryable backend rejection (queue_full/draining):
            # back off and re-route — possibly to the same shard once
            # its queue clears, or past it if it goes down meanwhile.
            if not await self._retry_backoff(job):
                error = response.get("error") or {}
                self._finish(job, schema.FAILED,
                             error=f"backend {backend.name}: "
                                   f"{error.get('code', 'error')}: "
                                   f"{error.get('message', '')}")
                return

    def _route_key(self, job: RouterJob) -> str:
        """What the hash ring places for this job.

        Frames of one animation stream carry a ``sequence`` hint; they
        route by the stream's identity rather than the per-frame
        request key, so consecutive frames land on the shard whose
        memo and memory tiers the earlier frames already warmed."""
        request = job.request
        if request.sequence is not None:
            return f"seq:{request.alias}:{request.sequence}"
        return job.key

    async def _acquire_backend(self, job: RouterJob,
                               avoid: set[str]) -> Backend | None:
        """The ring owner for this job's routing key among healthy
        backends, waiting briefly through total outages (a restarting
        cluster should queue, not fail)."""
        assert self._membership is not None
        deadline = time.monotonic() + self.no_backend_wait_s
        route_key = self._route_key(job)
        while True:
            down = {name for name, backend in self._backends.items()
                    if not backend.up}
            name = self.ring.node_for(route_key, avoid=down | avoid)
            if name is None and avoid:
                # Every healthy shard was already tried this round;
                # widen back to any healthy shard rather than failing.
                avoid.clear()
                name = self.ring.node_for(route_key, avoid=down)
            if name is not None:
                return self._backends[name]
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._closed:
                return None
            self._membership.clear()
            try:
                await asyncio.wait_for(self._membership.wait(),
                                       min(remaining,
                                           self.probe_interval_s))
            except asyncio.TimeoutError:
                pass  # re-evaluate membership on the tick

    async def _retry_backoff(self, job: RouterJob) -> bool:
        """Whether the job still has attempt budget; sleeps the
        exponential backoff when it does."""
        if job.attempts >= self.max_forward_attempts or self._closed:
            return False
        self.metrics.count("retries")
        self.metrics.decision("retry", key=job.key)
        job.state = schema.QUEUED
        await asyncio.sleep(
            self.retry_backoff_s * (2 ** max(0, job.attempts - 1)))
        return job.state == schema.QUEUED  # close() may have raced

    def _complete_from_response(self, job: RouterJob, backend: Backend,
                                response: dict) -> bool:
        """Digest one backend reply; ``False`` means retry-worthy."""
        error = response.get("error")
        if error is not None:
            code = str(error.get("code", "internal"))
            if code in _RETRYABLE_CODES:
                return False
            self._finish(job, schema.FAILED,
                         error=f"backend {backend.name}: {code}: "
                               f"{error.get('message', '')}")
            return True
        payload = response.get("result")
        if not isinstance(payload, dict):
            # Malformed success reply: treat like a failed forward.
            self._finish(job, schema.FAILED,
                         error=f"backend {backend.name} returned no "
                               "result payload")
            return True
        job.served_by = payload.get("served_by") or backend.name
        state = payload.get("state", schema.FAILED)
        if state != schema.DONE:
            # Deterministic simulation failure on the shard: retrying
            # elsewhere would reproduce it bit-for-bit.
            self._finish(job, schema.FAILED,
                         lane=payload.get("lane"),
                         error=payload.get("error")
                         or f"backend {backend.name} state {state}")
            return True
        record = {"result": payload.get("result"),
                  "metrics": payload.get("metrics", {}),
                  "invariant_failures": payload.get(
                      "invariant_failures", [])}
        self.tier.admit(job.key, record)
        self._finish(job, schema.DONE, record=record,
                     lane=payload.get("lane") or "pool")
        return True

    # -- backend wire --------------------------------------------------
    async def _forward(self, backend: Backend, job: RouterJob) -> dict:
        """One submit-and-wait round trip to a shard."""
        timeout = job.request.timeout_s or self.forward_timeout_s
        payload = {"op": "submit", "v": schema.SCHEMA_VERSION,
                   "request": schema.request_to_payload(job.request),
                   "wait": True, "timeout_s": timeout}
        # The backend enforces `timeout` itself (504 past it); the
        # outer allowance only catches a shard that stopped answering.
        return await asyncio.wait_for(
            self._backend_call(backend, payload),
            timeout + 2 * self.connect_timeout_s)

    async def _backend_call(self, backend: Backend,
                            payload: dict) -> dict:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(backend.host, backend.port),
            self.connect_timeout_s)
        try:
            writer.write(json.dumps(payload, sort_keys=True).encode()
                         + b"\n")
            await writer.drain()
            line = await reader.readline()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # already torn down under us
        if not line:
            raise ConnectionError(
                f"backend {backend.name} closed the connection")
        if len(line) > MAX_LINE_BYTES:
            raise ValueError(f"backend {backend.name} reply too long")
        response = json.loads(line)
        if not isinstance(response, dict):
            raise ValueError(f"backend {backend.name} sent a non-object")
        return response

    # -- membership / health -------------------------------------------
    def _note_backend_failure(self, backend: Backend,
                              exc: BaseException) -> None:
        backend.failures += 1
        backend.last_error = f"{type(exc).__name__}: {exc}"
        if backend.up and backend.failures >= self.fail_threshold:
            self._mark_down(backend)

    def _note_backend_success(self, backend: Backend) -> None:
        backend.failures = 0
        backend.backoff_s = self.reconnect_backoff_s
        backend.last_error = None
        if not backend.up:
            self._mark_up(backend)

    def _mark_down(self, backend: Backend) -> None:
        backend.up = False
        backend.backoff_s = self.reconnect_backoff_s
        backend.next_probe_s = time.monotonic() + backend.backoff_s
        self.ring.remove(backend.name)
        self.metrics.count("backend_down")
        self.metrics.gauge(
            "backends_up",
            sum(1 for other in self._backends.values() if other.up))
        self.metrics.decision("backend_down", shard=backend.name,
                              jobs=backend.inflight)
        if self._membership is not None:
            self._membership.set()

    def _mark_up(self, backend: Backend) -> None:
        backend.up = True
        backend.failures = 0
        self.ring.add(backend.name)
        self.metrics.count("backend_up")
        self.metrics.gauge(
            "backends_up",
            sum(1 for other in self._backends.values() if other.up))
        self.metrics.decision("backend_up", shard=backend.name)
        if self._membership is not None:
            self._membership.set()

    async def _probe_loop(self) -> None:
        """Health checking: every backend gets a periodic ``healthz``
        probe; down backends are re-probed on their own exponential
        backoff schedule until they answer."""
        while True:
            now = time.monotonic()
            for backend in list(self._backends.values()):
                if now < backend.next_probe_s:
                    continue
                await self._probe(backend)
            await asyncio.sleep(
                min(self.probe_interval_s, 0.25)
                if any(not backend.up
                       for backend in self._backends.values())
                else self.probe_interval_s)

    async def _probe(self, backend: Backend) -> None:
        try:
            response = await asyncio.wait_for(
                self._backend_call(
                    backend,
                    {"op": "healthz", "v": schema.SCHEMA_VERSION}),
                self.connect_timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError) as exc:
            self._note_backend_failure(backend, exc)
            if not backend.up:
                backend.backoff_s = min(backend.backoff_s * 2,
                                        self.reconnect_backoff_max_s)
                backend.next_probe_s = time.monotonic() \
                    + backend.backoff_s
            return
        theirs = response.get("schema_version")
        error = response.get("error") or {}
        if error.get("code") == "version_mismatch" or (
                theirs is not None
                and not schema.versions_compatible(int(theirs))):
            # Speaks, but a schema too far away: typed quarantine, slow
            # re-probe (an upgrade, not a reboot, brings it back).
            backend.schema_version = (int(theirs)
                                      if theirs is not None else None)
            backend.last_error = ServeError.version_mismatch(
                theirs).message
            self.metrics.count("version_mismatch")
            self.metrics.decision("version_mismatch",
                                  shard=backend.name)
            if backend.up:
                self._mark_down(backend)
            backend.backoff_s = self.reconnect_backoff_max_s
            backend.next_probe_s = time.monotonic() + backend.backoff_s
            return
        if theirs is not None:
            backend.schema_version = int(theirs)
        backend.next_probe_s = time.monotonic() + self.probe_interval_s
        self._note_backend_success(backend)
