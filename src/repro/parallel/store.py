"""Persistent, content-addressed store for simulation results.

A full-system simulation is a pure function of (workload identity,
resolved configuration, simulator code).  :func:`simulation_key` hashes
exactly those inputs into the one key every result cache shares: this
store's records, the serve request key, the scheduler and router memos
and the memory tier.  The code contribution reuses the lint engine's
package-signature idea: a hash of every simulator source file, so *any*
edit to the simulator invalidates every cached record cleanly, while
edits to experiment formatting, lint rules or this store leave warm
caches warm.

Records are one JSON file per key under ``.repro-cache/`` (override
with ``REPRO_CACHE_DIR`` or a constructor argument); writes go through
a temp file + ``os.replace`` so concurrent workers never publish a
torn record, and unreadable records degrade to cache misses.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import zipfile
import zlib
from dataclasses import asdict, fields
from pathlib import Path

from repro import envvars
from repro.tcor.system import SystemResult
from repro.workloads.suite import WorkloadIdentity

CACHE_VERSION = 3
DEFAULT_CACHE_DIR = ".repro-cache"

# The simulator proper: everything a SystemResult's counters depend on.
# Excludes experiments/analysis/lint/parallel/perf, whose edits cannot
# change simulation outcomes.
_SIMULATION_SOURCES = (
    "config.py",
    "constants.py",
    "anim",
    "caches",
    "dram",
    "energy",
    "geometry",
    "pbuffer",
    "raster",
    "tcor",
    "textures",
    "tiling",
    "workloads",
)

# Cached experiment *tables* additionally depend on the code that
# sweeps, aggregates and formats: any edit here must invalidate table
# records while leaving raw SystemResult records warm.
_EXPERIMENT_SOURCES = _SIMULATION_SOURCES + ("analysis", "experiments",
                                             "timing")

# Compiled access traces depend only on what shapes the event stream
# and the IR itself — deliberately *narrower* than the simulation
# signature, so a cache-model edit (tcor/, caches/) re-simulates
# against warm traces instead of recompiling every workload.
_TRACE_SOURCES = (
    "config.py",
    "constants.py",
    "anim",
    "geometry",
    "pbuffer",
    "replay",
    "tiling",
    "workloads",
)

# Compiled traces are big (npz archives, not counter records), so the
# trace store is capped: least-recently-used archives are evicted once
# the total size passes the budget.
_TRACE_CACHE_BYTES_ENV = envvars.TRACE_CACHE_BYTES
DEFAULT_TRACE_CACHE_BYTES = 512 * 1024 * 1024


def _tree_signature(root: Path, names: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    for rel in names:
        path = root / rel
        if path.is_file():
            digest.update(rel.encode())
            digest.update(path.read_bytes())
        elif path.is_dir():
            for source in sorted(path.rglob("*.py")):
                digest.update(source.relative_to(root).as_posix().encode())
                digest.update(source.read_bytes())
    return digest.hexdigest()


def _package_root(package_root: str | os.PathLike | None) -> Path:
    return (Path(package_root) if package_root is not None
            else Path(__file__).resolve().parent.parent)


def simulation_code_signature(package_root: str | os.PathLike | None = None
                              ) -> str:
    """Hash of the simulator's own sources (code-edit invalidation).

    ``package_root`` defaults to the installed ``repro`` package; tests
    point it at a scratch tree to exercise invalidation without
    touching real sources.
    """
    return _tree_signature(_package_root(package_root), _SIMULATION_SOURCES)


def experiment_code_signature(package_root: str | os.PathLike | None = None
                              ) -> str:
    """Hash of simulator + experiment/analysis sources, for table
    records: coarser than :func:`simulation_code_signature` because a
    formatting or sweep change alters the table without altering any
    ``SystemResult``."""
    return _tree_signature(_package_root(package_root), _EXPERIMENT_SOURCES)


def trace_code_signature(package_root: str | os.PathLike | None = None
                         ) -> str:
    """Hash of the sources a compiled access trace depends on (the
    event stream producers + the trace compiler)."""
    return _tree_signature(_package_root(package_root), _TRACE_SOURCES)


def _digest(signature: str, payload: dict) -> str:
    canonical = json.dumps(
        {"version": CACHE_VERSION, "signature": signature,
         "payload": payload},
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def simulation_key(identity: WorkloadIdentity, config,
                   signature: str = "") -> str:
    """The one key of a simulation result.

    SHA-256 over canonical JSON of the workload identity, the
    *resolved* :class:`~repro.api.SimulationConfig` and the simulator
    code ``signature``, so every spelling of one simulation (a default
    left implicit or made explicit, a TCOR split given by budget or by
    partition) shares one key.
    """
    return _digest(signature, {"workload": identity.payload(),
                               "config": asdict(config.resolved())})


def result_to_dict(result: SystemResult) -> dict:
    """JSON-serializable form of one ``SystemResult`` record."""
    return asdict(result)


def result_from_dict(data: dict) -> SystemResult:
    """Inverse of :func:`result_to_dict`; unknown keys are dropped so
    old records stay loadable when ``SystemResult`` grows a field."""
    names = {f.name for f in fields(SystemResult)}
    return SystemResult(**{key: value for key, value in data.items()
                           if key in names})


# Distinguishes temp files written by concurrent threads of one process
# (the serve scheduler's write-through and the pool engine share a
# cache directory); the pid component covers concurrent processes.
_TMP_SEQUENCE = itertools.count()


class DiskCache:
    """Content-addressed ``SystemResult`` records and compiled traces
    on disk.

    Results are read and written by (workload identity, config) through
    :meth:`get_result`/:meth:`put_result`, under :func:`simulation_key`;
    compiled traces by workload identity through
    :meth:`get_trace`/:meth:`put_trace`.  Callers stay duck-typed and
    import-cycle-free.  The object pickles small (no file handles), so
    pool workers receive the parent's store instead of reopening it.
    """

    def __init__(self, directory: str | os.PathLike | None = None,
                 signature: str | None = None,
                 table_signature: str | None = None,
                 trace_signature: str | None = None,
                 trace_cache_bytes: int | None = None) -> None:
        if directory is None:
            directory = os.environ.get(envvars.CACHE_DIR) \
                or DEFAULT_CACHE_DIR
        self.directory = Path(directory)
        self.signature = (signature if signature is not None
                          else simulation_code_signature())
        self.table_signature = (table_signature if table_signature is not None
                                else experiment_code_signature())
        self.trace_signature = (trace_signature if trace_signature is not None
                                else trace_code_signature())
        if trace_cache_bytes is None:
            trace_cache_bytes = int(
                os.environ.get(_TRACE_CACHE_BYTES_ENV)
                or DEFAULT_TRACE_CACHE_BYTES)
        self.trace_cache_bytes = trace_cache_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- record I/O ----------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _load(self, key: str) -> dict | None:
        path = self._path(key)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if record.get("version") != CACHE_VERSION or "data" not in record:
            self.misses += 1
            return None
        self.hits += 1
        return record["data"]

    def _read(self, key: str) -> SystemResult | None:
        data = self._load(key)
        return None if data is None else result_from_dict(data)

    def _write(self, key: str, meta: dict, data: dict | list) -> None:
        # The temp name is unique per (process, thread, write), so any
        # number of concurrent writers — pool workers, server batches,
        # separate CLI invocations — publish whole records via
        # ``os.replace`` without ever clobbering each other's temp
        # files; the last writer of one key wins with identical bytes.
        record = {"version": CACHE_VERSION, "signature": self.signature,
                  "meta": meta, "data": data}
        path = self._path(key)
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}."
            f"{next(_TMP_SEQUENCE)}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(record, sort_keys=True, default=str))
            os.replace(tmp, path)
            self.stores += 1
        except OSError:
            # Best-effort persistence: a full disk or read-only cache
            # directory must never fail the simulation itself.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    # -- simulation results --------------------------------------------
    def get_result(self, identity: WorkloadIdentity,
                   config) -> SystemResult | None:
        """The stored result of ``config`` on ``identity``, or ``None``."""
        get = self.get_baseline if config.kind == "baseline" \
            else self.get_tcor
        return get(identity, config)

    def put_result(self, identity: WorkloadIdentity, config,
                   result: SystemResult) -> None:
        put = self.put_baseline if config.kind == "baseline" \
            else self.put_tcor
        put(identity, config, result)

    def _get(self, identity: WorkloadIdentity,
             config) -> SystemResult | None:
        return self._read(simulation_key(identity, config, self.signature))

    def _put(self, identity: WorkloadIdentity, config,
             result: SystemResult) -> None:
        meta = {"kind": config.kind, "alias": identity.spec.alias,
                "scale": identity.scale}
        self._write(simulation_key(identity, config, self.signature), meta,
                    result_to_dict(result))

    # Both kinds share one key and one record format.  The per-kind
    # names keep each kind's store traffic separately observable (the
    # benchmark's layer spans wrap them); only get_result/put_result
    # choose between them.
    get_baseline = get_tcor = _get
    put_baseline = put_tcor = _put

    # -- compiled access traces ----------------------------------------
    def _trace_path(self, identity: WorkloadIdentity) -> Path:
        # Keyed by the *trace* signature (event-stream producers + the
        # IR), not the full simulation signature: cache-model edits must
        # leave compiled traces warm.
        key = _digest(self.trace_signature,
                      {"kind": "trace", "workload": identity.payload()})
        return self.directory / f"trace-{key}.npz"

    def get_trace(self, identity: WorkloadIdentity):
        """The persisted compiled trace of ``identity``, or ``None``.

        Any failure (missing file, torn or truncated archive, IR
        version mismatch) degrades to a cache miss, so the caller
        recompiles and overwrites the archive."""
        from repro.replay import load_trace

        path = self._trace_path(identity)
        try:
            with open(path, "rb") as handle:
                trace = load_trace(handle)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile,
                zlib.error):
            self.misses += 1
            return None
        try:
            # LRU bookkeeping for the size cap; best-effort.
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return trace

    def put_trace(self, identity: WorkloadIdentity, trace) -> None:
        from repro.replay import save_trace

        path = self._trace_path(identity)
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}."
            f"{next(_TMP_SEQUENCE)}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                save_trace(handle, trace)
            os.replace(tmp, path)
            self.stores += 1
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        self._enforce_trace_cap(keep=path)

    def _enforce_trace_cap(self, keep: Path) -> int:
        """Evict least-recently-used trace archives over the budget.

        The just-written archive is always spared (evicting it would
        defeat the write), so a single trace larger than the whole
        budget still persists.  Returns the number evicted."""
        try:
            archives = [(path, path.stat()) for path
                        in self.directory.glob("trace-*.npz")]
        except OSError:
            return 0
        total = sum(stat.st_size for _, stat in archives)
        evicted = 0
        # Oldest first; the spared file sorts wherever, it is skipped.
        for path, stat in sorted(archives, key=lambda item: item[1].st_mtime):
            if total <= self.trace_cache_bytes:
                break
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= stat.st_size
            evicted += 1
        return evicted

    # -- runner-facing table records -----------------------------------
    def _tables_payload(self, experiment: str, scale: float,
                        aliases: tuple[str, ...]) -> dict:
        # The experiment signature rides in the payload (the envelope
        # signature covers only simulator sources), so sweep/formatting
        # edits invalidate tables without touching SystemResult records.
        return {"kind": "tables", "experiment": experiment, "scale": scale,
                "aliases": list(aliases),
                "table_signature": self.table_signature}

    def get_tables(self, experiment: str, scale: float,
                   aliases: tuple[str, ...]) -> list | None:
        """Cached :class:`ExperimentResult` list for one experiment, or
        ``None``.  A warm runner invocation skips the module entirely."""
        data = self._load(_digest(
            self.signature, self._tables_payload(experiment, scale, aliases)))
        if data is None:
            return None
        from repro.experiments.common import ExperimentResult
        return [ExperimentResult(**entry) for entry in data]

    def put_tables(self, experiment: str, scale: float,
                   aliases: tuple[str, ...], results: list) -> None:
        payload = self._tables_payload(experiment, scale, aliases)
        meta = {"kind": "tables", "experiment": experiment, "scale": scale}
        self._write(_digest(self.signature, payload), meta,
                    [asdict(result) for result in results])

    # -- maintenance ---------------------------------------------------
    def stats_line(self) -> str:
        return (f"disk cache: {self.hits} hits, {self.misses} misses, "
                f"{self.stores} stores ({self.directory})")

    def clear(self) -> int:
        """Delete every record (results, tables and compiled traces);
        returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for pattern in ("*.json", "trace-*.npz"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed
