"""Typed request/response schema of the simulation service.

Everything that crosses the wire is a plain JSON object with a typed
dataclass view on each side:

- :class:`JobRequest` — one simulation to run: a benchmark alias, a
  geometry scale and a frozen :class:`~repro.api.SimulationConfig`,
  plus scheduling hints (priority lane, timeout);
- :class:`JobStatus` — the scheduler's view of a submitted job;
- :class:`JobResult` — a finished job: the ``SystemResult`` record,
  its metrics snapshot and invariant check, and how it was served
  (``pool``, ``disk`` or ``memo`` lane);
- :class:`ServeError` — a typed failure carrying a machine-readable
  code and the HTTP status it maps to (``queue_full`` → 429, ...).

Request identity is :func:`request_key`, which is
:func:`~repro.parallel.store.simulation_key` over the request's
workload identity (alias, scale, animation recipe) and its *resolved*
config: every spelling of one simulation shares one key, scheduling
hints (priority, timeout) never split identical work, and the key is
the very string the :class:`~repro.parallel.store.DiskCache` files the
result under.  So coalescing, the scheduler and router memos, the
memory tier and the disk lane all index one key, and
:func:`probe_disk_batch` / :func:`store_disk_batch` read and write the
same records the experiment runner does, for every request.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Mapping

from repro.anim.spec import AnimationSpec, anim_from_payload, anim_to_payload
from repro.api import SimulationConfig
from repro.config import (
    CacheConfig,
    GPUConfig,
    MemoryConfig,
    ParameterBufferConfig,
    ScreenConfig,
    TCORConfig,
    TilingEngineConfig,
)
from repro.parallel.store import (
    result_from_dict,
    result_to_dict,
    simulation_key,
)
from repro.tcor.system import SystemResult
from repro.workloads.suite import BENCHMARKS, WorkloadIdentity

SCHEMA_VERSION = 2

# How far apart two speakers' schema versions may be and still talk.
# Adjacent versions interoperate (fields only ever *grow*, and both
# payload parsers drop unknown keys); anything further apart fails
# fast with a typed ``version_mismatch`` instead of corrupting state.
VERSION_COMPAT_SPAN = 1


def versions_compatible(theirs: int, ours: int = SCHEMA_VERSION) -> bool:
    """Whether two wire-schema versions may interoperate."""
    return abs(int(theirs) - int(ours)) <= VERSION_COMPAT_SPAN


# Priority lanes, highest first: the batcher always prefers the head
# of the "interactive" lane when choosing the next micro-batch.
PRIORITIES = ("interactive", "batch")
DEFAULT_PRIORITY = "batch"

# Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TIMEOUT = "timeout"
CANCELLED = "cancelled"
TERMINAL_STATES = (DONE, FAILED, TIMEOUT, CANCELLED)


class ServeError(Exception):
    """Typed service failure (JSON-serializable, HTTP-mappable)."""

    def __init__(self, code: str, message: str,
                 http_status: int = 400) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.http_status = http_status

    def to_payload(self) -> dict:
        return {"code": self.code, "message": self.message,
                "http_status": self.http_status}

    @classmethod
    def from_payload(cls, payload: dict) -> "ServeError":
        return cls(str(payload.get("code", "internal")),
                   str(payload.get("message", "unknown error")),
                   int(payload.get("http_status", 500)))

    # -- the service's failure vocabulary ------------------------------
    @classmethod
    def bad_request(cls, message: str) -> "ServeError":
        return cls("bad_request", message, 400)

    @classmethod
    def not_found(cls, job_id: str) -> "ServeError":
        return cls("not_found", f"unknown job id {job_id!r}", 404)

    @classmethod
    def queue_full(cls, limit: int) -> "ServeError":
        return cls("queue_full",
                   f"admission queue is full ({limit} jobs); retry later",
                   429)

    @classmethod
    def draining(cls) -> "ServeError":
        return cls("draining",
                   "server is draining and accepts no new jobs", 503)

    @classmethod
    def wait_timeout(cls, job_id: str, timeout_s: float) -> "ServeError":
        return cls("timeout",
                   f"job {job_id!r} not finished within {timeout_s:g}s",
                   504)

    @classmethod
    def version_mismatch(cls, theirs, ours: int = None) -> "ServeError":
        ours = SCHEMA_VERSION if ours is None else ours
        return cls("version_mismatch",
                   f"wire schema version {theirs!r} is not within "
                   f"{VERSION_COMPAT_SPAN} of this speaker's "
                   f"{ours}; upgrade one side",
                   426)

    @classmethod
    def no_backends(cls) -> "ServeError":
        return cls("no_backends",
                   "no healthy backend shard is available", 503)


# -- SimulationConfig (de)serialization --------------------------------

def _filtered_kwargs(cls, data: dict) -> dict:
    names = {f.name for f in fields(cls)}
    return {key: value for key, value in data.items() if key in names}


def _cache_config_from(data: dict) -> CacheConfig:
    return CacheConfig(**_filtered_kwargs(CacheConfig, data))


def tcor_config_from_payload(data: dict) -> TCORConfig:
    kwargs = _filtered_kwargs(TCORConfig, data)
    plc = kwargs.get("primitive_list_cache")
    if isinstance(plc, dict):
        kwargs["primitive_list_cache"] = _cache_config_from(plc)
    return TCORConfig(**kwargs)


_GPU_NESTED = {
    "screen": ScreenConfig,
    "memory": MemoryConfig,
    "pbuffer": ParameterBufferConfig,
    "tiling": TilingEngineConfig,
    "vertex_cache": CacheConfig,
    "texture_cache": CacheConfig,
    "tile_cache": CacheConfig,
    "l2_cache": CacheConfig,
}


def gpu_config_from_payload(data: dict) -> GPUConfig:
    kwargs = _filtered_kwargs(GPUConfig, data)
    for name, cls in _GPU_NESTED.items():
        nested = kwargs.get(name)
        if isinstance(nested, dict):
            kwargs[name] = cls(**_filtered_kwargs(cls, nested))
    return GPUConfig(**kwargs)


def config_to_payload(config: SimulationConfig) -> dict:
    """Canonical JSON-able form of one :class:`SimulationConfig`."""
    return {
        "kind": config.kind,
        "tile_cache_bytes": config.tile_cache_bytes,
        "l2_enhancements": config.l2_enhancements,
        "interleaved_lists": config.interleaved_lists,
        "include_background": config.include_background,
        "rendering_elimination": config.rendering_elimination,
        "tcor": asdict(config.tcor) if config.tcor is not None else None,
        "gpu": asdict(config.gpu) if config.gpu is not None else None,
    }


def config_from_payload(data: dict) -> SimulationConfig:
    """Inverse of :func:`config_to_payload` (unknown keys dropped)."""
    try:
        tcor = data.get("tcor")
        gpu = data.get("gpu")
        return SimulationConfig(
            kind=data.get("kind", "tcor"),
            tile_cache_bytes=data.get("tile_cache_bytes"),
            l2_enhancements=data.get("l2_enhancements", True),
            interleaved_lists=data.get("interleaved_lists", True),
            include_background=data.get("include_background", True),
            rendering_elimination=data.get("rendering_elimination", False),
            tcor=(tcor_config_from_payload(tcor)
                  if isinstance(tcor, dict) else None),
            gpu=(gpu_config_from_payload(gpu)
                 if isinstance(gpu, dict) else None),
        )
    except (TypeError, ValueError) as exc:
        raise ServeError.bad_request(f"malformed config: {exc}") from exc


# -- requests ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class JobRequest:
    """One simulation to run, plus scheduling hints.

    ``alias``/``scale``/``config``/``anim`` define the simulation (and
    the request key); ``priority``, ``timeout_s`` and ``sequence`` are
    hints to the scheduler and deliberately *not* part of the key, so
    identical simulations coalesce across lanes.  ``anim`` selects the
    coherent multi-frame workload (``build_animated_workload``) instead
    of the suite's single frame; ``sequence`` names the animation
    stream a request belongs to, which the cluster router uses to pin
    every frame of one sequence to the same shard (warm memo tier).
    """

    alias: str
    scale: float = 1.0
    config: SimulationConfig = field(default_factory=SimulationConfig)
    priority: str = DEFAULT_PRIORITY
    timeout_s: float | None = None
    anim: AnimationSpec | None = None
    sequence: str | None = None

    def __post_init__(self) -> None:
        if self.alias not in BENCHMARKS:
            raise ServeError.bad_request(
                f"unknown benchmark alias {self.alias!r}; choose from "
                f"{sorted(BENCHMARKS)}")
        if not self.scale > 0:
            raise ServeError.bad_request(
                f"scale must be positive, got {self.scale!r}")
        if self.anim is not None and not isinstance(self.anim,
                                                    AnimationSpec):
            raise ServeError.bad_request(
                f"anim must be an AnimationSpec, got {self.anim!r}")
        if self.priority not in PRIORITIES:
            raise ServeError.bad_request(
                f"priority must be one of {PRIORITIES}, "
                f"got {self.priority!r}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ServeError.bad_request(
                f"timeout_s must be positive, got {self.timeout_s!r}")

    @property
    def identity(self) -> WorkloadIdentity:
        """The workload this request simulates."""
        return WorkloadIdentity(BENCHMARKS[self.alias], self.scale,
                                self.anim)


def request_to_payload(request: JobRequest) -> dict:
    return {
        "alias": request.alias,
        "scale": request.scale,
        "config": config_to_payload(request.config),
        "priority": request.priority,
        "timeout_s": request.timeout_s,
        "anim": (anim_to_payload(request.anim)
                 if request.anim is not None else None),
        "sequence": request.sequence,
    }


def request_from_payload(data: dict) -> JobRequest:
    if not isinstance(data, dict):
        raise ServeError.bad_request("request must be a JSON object")
    config = data.get("config")
    anim = data.get("anim")
    try:
        return JobRequest(
            alias=data.get("alias", ""),
            scale=float(data.get("scale", 1.0)),
            config=(config_from_payload(config)
                    if isinstance(config, dict) else SimulationConfig()),
            priority=data.get("priority", DEFAULT_PRIORITY),
            timeout_s=(float(data["timeout_s"])
                       if data.get("timeout_s") is not None else None),
            anim=(anim_from_payload(anim)
                  if isinstance(anim, dict) else None),
            sequence=(str(data["sequence"])
                      if data.get("sequence") is not None else None),
        )
    except ServeError:
        raise
    except (TypeError, ValueError) as exc:
        raise ServeError.bad_request(f"malformed request: {exc}") from exc


def request_key(request: JobRequest, signature: str = "") -> str:
    """Deterministic identity of one simulation request: the store's
    :func:`~repro.parallel.store.simulation_key` of its workload and
    config.  ``signature`` is the simulator-code signature (the disk
    store's, constant within one server process); scheduling hints are
    not part of the key."""
    return simulation_key(request.identity, request.config, signature)


# -- disk-cache mapping ------------------------------------------------

def probe_disk_batch(disk, requests: list[JobRequest]
                     ) -> list[SystemResult | None]:
    """One executor round-trip for a whole micro-batch's warm probes,
    positionally aligned with ``requests``."""
    return [disk.get_result(request.identity, request.config)
            for request in requests]


def store_disk_batch(disk, entries: list[tuple[JobRequest,
                                               SystemResult]]) -> None:
    """One executor round-trip for a batch of write-throughs."""
    for request, result in entries:
        disk.put_result(request.identity, request.config, result)


# -- status / results --------------------------------------------------

@dataclass(frozen=True, slots=True)
class JobStatus:
    """Scheduler-side view of one submitted job.

    ``shard`` is forwarded-job provenance: the cluster router records
    which backend shard a job was (last) routed to; single-node
    schedulers leave it ``None``.
    """

    job_id: str
    state: str
    priority: str = DEFAULT_PRIORITY
    lane: str | None = None
    attempts: int = 0
    coalesced: int = 0
    error: str | None = None
    queued_for_s: float = 0.0
    running_for_s: float = 0.0
    shard: str | None = None


def status_to_payload(status: JobStatus) -> dict:
    return asdict(status)


def status_from_payload(data: dict) -> JobStatus:
    return JobStatus(**_filtered_kwargs(JobStatus, data))


@dataclass(frozen=True, slots=True)
class JobResult:
    """One finished job, with the typed ``SystemResult`` view.

    Forwarded-job provenance rides along: ``shard`` names the backend
    the cluster router served this job through (``None`` off-cluster),
    and ``served_by`` is the serving process's self-reported name
    (``tcor-serve --name``), so a result can always be attributed to
    the exact worker that produced it.
    """

    job_id: str
    state: str
    lane: str | None = None
    attempts: int = 0
    elapsed_s: float = 0.0
    result: SystemResult | None = None
    metrics: Mapping[str, float] = field(default_factory=dict)
    invariant_failures: tuple[str, ...] = ()
    error: str | None = None
    shard: str | None = None
    served_by: str | None = None

    @property
    def ok(self) -> bool:
        return self.state == DONE and not self.invariant_failures


def job_result_to_payload(result: JobResult) -> dict:
    return {
        "id": result.job_id,
        "state": result.state,
        "lane": result.lane,
        "attempts": result.attempts,
        "elapsed_s": result.elapsed_s,
        "result": (result_to_dict(result.result)
                   if result.result is not None else None),
        "metrics": dict(result.metrics),
        "invariant_failures": list(result.invariant_failures),
        "error": result.error,
        "shard": result.shard,
        "served_by": result.served_by,
    }


def job_result_from_payload(data: dict) -> JobResult:
    record = data.get("result")
    return JobResult(
        job_id=data.get("id", ""),
        state=data.get("state", FAILED),
        lane=data.get("lane"),
        attempts=int(data.get("attempts", 0)),
        elapsed_s=float(data.get("elapsed_s", 0.0)),
        result=(result_from_dict(record)
                if isinstance(record, dict) else None),
        metrics=dict(data.get("metrics") or {}),
        invariant_failures=tuple(data.get("invariant_failures") or ()),
        error=data.get("error"),
        shard=data.get("shard"),
        served_by=data.get("served_by"),
    )
