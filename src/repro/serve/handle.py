"""``repro.api.connect`` — the cluster as a simulation provider.

:class:`ServeHandle` implements the
:class:`~repro.experiments.common.SimulationProvider` ABC over a
:class:`~repro.serve.client.ServeClient` connection, so a remote
``tcor-serve`` worker — or the whole sharded cluster behind a router —
is a drop-in replacement for :func:`repro.api.simulation_cache`:
experiment modules, the driver and the benchmark suite simulate
through it unchanged, and the serving contract guarantees the results
are byte-identical to local :func:`repro.api.simulate` calls.

Division of labour mirrors the local providers, whose base class
holds the workload sources, the memo and the metrics export: workloads
(deterministic geometry) build in-process and memoize; system
simulations (expensive) go over the wire, where the service's
coalescing/memo/tier machinery deduplicates them, and land in the
memo so each (kind, alias, budget) cell is fetched at most once per
handle.  :meth:`prefetch` submits the named experiments' whole job
matrix without waiting, letting the service batch and shard it, then
collects the results — the remote analogue of the parallel provider's
process-pool fan-out.
"""

from __future__ import annotations

from repro.api import SimulationConfig
from repro.experiments.common import SimulationProvider
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.schema import DONE, JobRequest
from repro.tcor.system import SystemResult

DEFAULT_RESULT_TIMEOUT_S = 600.0


class ServeHandle(SimulationProvider):
    """A remote simulation provider over one service connection.

    Construct via :func:`connect` (or :func:`repro.api.connect`).
    Context-manageable; :meth:`close` is idempotent and closes the
    underlying client.
    """

    def __init__(self, client: ServeClient, *, scale: float = 1.0,
                 aliases: tuple[str, ...] | None = None,
                 timeout_s: float = DEFAULT_RESULT_TIMEOUT_S) -> None:
        super().__init__(scale=scale, aliases=aliases)
        self.client = client
        self.timeout_s = timeout_s

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the provider contract -----------------------------------------
    def _run(self, alias: str, config: SimulationConfig) -> SystemResult:
        return self._collect(self.client.run(self._request(alias, config),
                                             timeout_s=self.timeout_s))

    def prefetch(self, names=None) -> int:
        """Submit the named experiments' job matrix, collect results.

        Submissions go out without waiting (the service coalesces
        duplicates and shards the work); results are then collected in
        submission order.  Returns the number of jobs fetched over the
        wire (memoized cells are skipped).
        """
        from repro.parallel.engine import (
            EXPERIMENT_VARIANTS,
            enumerate_jobs,
        )

        names = tuple(names) if names is not None \
            else tuple(EXPERIMENT_VARIANTS)
        submitted: list[tuple[tuple, str]] = []
        for job in enumerate_jobs(names, self.aliases):
            key = self.memo_key(job.alias, job.config)
            if key in self._systems:
                continue
            response = self.client.submit(self._request(job.alias,
                                                        job.config))
            submitted.append((key, response["id"]))
        for key, job_id in submitted:
            self._systems[key] = self._collect(
                self.client.wait(job_id, timeout_s=self.timeout_s))
        return len(submitted)

    # -- wire plumbing -------------------------------------------------
    def _request(self, alias: str, config: SimulationConfig) -> JobRequest:
        return JobRequest(alias=alias, scale=self.scale, config=config,
                          timeout_s=self.timeout_s)

    @staticmethod
    def _collect(result) -> SystemResult:
        if result.state != DONE or result.result is None:
            raise ServeClientError(
                "remote_failed",
                result.error or f"job finished in state {result.state}",
                502)
        return result.result


def connect(endpoints, *, scale: float = 1.0,
            aliases: tuple[str, ...] | None = None,
            timeout_s: float = DEFAULT_RESULT_TIMEOUT_S,
            connect_timeout_s: float | None = None) -> ServeHandle:
    """Connect to a ``tcor-serve`` worker, a list of workers, or the
    cluster router, as a :class:`SimulationProvider`.

    ``endpoints`` takes every form :class:`ServeClient` does — one
    ``"host:port"`` string, a ``(host, port)`` pair, or a list for
    client-side failover.  The returned handle is a drop-in for
    :func:`repro.api.simulation_cache`.
    """
    client = ServeClient(
        endpoints,
        timeout_s=(connect_timeout_s if connect_timeout_s is not None
                   else timeout_s))
    return ServeHandle(client, scale=scale, aliases=aliases,
                       timeout_s=timeout_s)
