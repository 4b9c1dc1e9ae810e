"""Process-pool fan-out over the experiment job matrix.

The paper's figure regeneration is embarrassingly parallel: every
(benchmark, tile-cache size, organization) simulation is independent —
the same disjoint-work structure TBR itself exploits across tiles.
:class:`ParallelSimulationCache` enumerates the exact jobs the
requested experiment modules will ask for, fans them out across a
``ProcessPoolExecutor``, and memoizes the returned
:class:`~repro.tcor.system.SystemResult` records under the same keys
the serial cache uses — so figure modules are oblivious to how their
inputs were produced, and parallel runs are byte-identical to serial
ones (every workload is seeded, no state crosses workloads).

Each worker runs one benchmark's jobs through the same
:func:`~repro.api.run_simulation` the serial cache uses, finding the
compiled trace once per batch through the parent's store (loaded, or
built, compiled and stored), so nothing large is ever pickled into the
pool; only compact ``SystemResult`` counter records come back.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

from repro.api import SimulationConfig, WorkloadSource, run_simulation
from repro.obs import trace as obs_trace
from repro.experiments.common import (
    DEFAULT_SCALE,
    TILE_CACHE_SIZES,
    SimulationCache,
)
from repro.tcor.system import SystemResult
from repro.workloads.suite import BENCHMARKS, WorkloadIdentity

# Which cache-backed simulation variants each experiment module
# consumes (modules that only need workloads build them in-process).
EXPERIMENT_VARIANTS: dict[str, tuple[str, ...]] = {
    "headline": ("baseline", "tcor"),
    "fig14": ("baseline", "tcor"),
    "fig16": ("baseline", "tcor"),
    "fig18": ("baseline", "tcor"),
    "fig20": ("baseline", "tcor", "tcor_no_l2"),
    "fig22": ("baseline", "tcor"),
}
_ALL_KINDS = ("baseline", "tcor", "tcor_no_l2")


@dataclass(frozen=True)
class SimJob:
    """One full-system simulation: a cell of the experiment matrix."""

    kind: str             # "baseline" | "tcor" | "tcor_no_l2"
    alias: str
    tile_cache_bytes: int

    @property
    def config(self) -> SimulationConfig:
        return SimulationConfig(
            kind="baseline" if self.kind == "baseline" else "tcor",
            tile_cache_bytes=self.tile_cache_bytes,
            l2_enhancements=(self.kind == "tcor"))


def enumerate_jobs(names, aliases) -> list[SimJob]:
    """The job matrix the named experiments need, in deterministic
    (benchmark-major) order."""
    kinds: set[str] = set()
    for name in names:
        kinds.update(EXPERIMENT_VARIANTS.get(name, ()))
    jobs = []
    for alias in aliases:
        for kind in _ALL_KINDS:
            if kind in kinds:
                for size in TILE_CACHE_SIZES.values():
                    jobs.append(SimJob(kind, alias, size))
    return jobs


def simulate_job_batch(alias: str, scale: float,
                       jobs: tuple[SimJob, ...], store=None
                       ) -> list[tuple[SimJob, SystemResult]]:
    """Worker entry point: one benchmark's jobs through the one
    simulation path, sharing one compiled trace.

    Must stay a module-level function (pickled by name into the pool).
    ``store`` is the parent's :class:`~repro.parallel.store.DiskCache`
    (or ``None``): the batch loads the compiled trace from it, or
    builds, compiles and stores it for the batches that follow.

    With the fork start method a worker inherits the parent's module
    state, including any tracer installed in ``obs.trace.ACTIVE`` at
    fork time — whose sinks hold duplicated file handles.  Simulating
    under that inherited tracer would interleave worker events into the
    parent's trace stream, so the batch runs under an explicit
    ``activation(None)`` scope: process-local, restored on exit, and
    the only module state this worker ever touches.
    """
    with obs_trace.activation(None):
        source = WorkloadSource(WorkloadIdentity(BENCHMARKS[alias], scale),
                                store=store)
        return [(job, run_simulation(source, job.config)) for job in jobs]


class ParallelSimulationCache(SimulationCache):
    """A drop-in :class:`SimulationCache` with process-pool prefetch.

    ``prefetch`` populates the memo table up front; everything not
    prefetched (or requested later) falls back to the inherited lazy
    path, so correctness never depends on the prefetch set being
    complete.
    """

    def __init__(self, scale: float = DEFAULT_SCALE,
                 aliases: tuple[str, ...] | None = None,
                 jobs: int = 1, disk=None) -> None:
        super().__init__(scale=scale, aliases=aliases, disk=disk)
        self.jobs = max(1, int(jobs))

    # -- fan-out -------------------------------------------------------
    def prefetch(self, names=None) -> int:
        """Simulate (in parallel) every job the named experiments need.

        ``names`` are resolved experiment keys (``fig14`` etc.); with
        ``None`` the full cache-backed matrix is assumed.  Jobs already
        memoized or on disk are skipped.  Returns the number of jobs
        actually simulated.
        """
        names = tuple(names) if names is not None else tuple(EXPERIMENT_VARIANTS)
        pending = []
        for job in enumerate_jobs(names, self.aliases):
            key = self.memo_key(job.alias, job.config)
            if key in self._systems:
                continue
            if self.disk is not None:
                hit = self.disk.get_result(self.source(job.alias).identity,
                                           job.config)
                if hit is not None:
                    self._systems[key] = hit
                    continue
            pending.append(job)
        if not pending:
            return 0

        by_alias: dict[str, list[SimJob]] = {}
        for job in pending:
            by_alias.setdefault(job.alias, []).append(job)

        if self.jobs == 1 or len(by_alias) == 1:
            # Serial fallback: run in-process (and reuse this cache's
            # workload memo instead of rebuilding in a worker).
            for job in pending:
                self._systems[self.memo_key(job.alias, job.config)] = \
                    self._simulate(job.alias, job.config)
            return len(pending)

        workers = min(self.jobs, len(by_alias))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [
                pool.submit(simulate_job_batch, alias,
                            self.scale, tuple(batch), self.disk)
                for alias, batch in by_alias.items()
            ]
            for future in as_completed(futures):
                for job, result in future.result():
                    self._systems[self.memo_key(job.alias,
                                                job.config)] = result
                    if self.disk is not None:
                        self.disk.put_result(
                            self.source(job.alias).identity, job.config,
                            result)
        except BaseException:
            # Ctrl-C (or a server drain cancelling the prefetch) must
            # not block on — or orphan — workers still crunching queued
            # batches: drop everything not yet started and re-raise
            # without waiting for stragglers.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
        return len(pending)
