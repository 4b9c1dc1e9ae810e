"""Shared experiment plumbing.

Workloads and full-system simulations are expensive, and several figures
reuse the same (benchmark, tile-cache size, organization) run — a
:class:`SimulationProvider` memoizes them across experiment modules
within one runner invocation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.api import (
    SimulationConfig,
    WorkloadSource,
    run_fetch_timing,
    run_simulation,
)
from repro.config import TCORConfig
from repro.tcor.system import SystemResult
from repro.workloads.suite import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    Workload,
    WorkloadIdentity,
    WorkloadProfile,
)

if TYPE_CHECKING:
    from repro.timing.tiling_timing import ThroughputResult

KIB = 1024
DEFAULT_SCALE = 1.0
# The paper evaluates two Tile Cache budgets.
TILE_CACHE_SIZES = {"64KiB": 64 * KIB, "128KiB": 128 * KIB}


@dataclass
class ExperimentResult:
    """One regenerated table or figure, as printable rows."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""

    def column(self, name: str) -> list:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def row_for(self, key) -> list:
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(key)


def format_table(result: ExperimentResult) -> str:
    """Fixed-width text rendering of an experiment result."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    table = [result.headers] + [[fmt(v) for v in row] for row in result.rows]
    widths = [max(len(row[col]) for row in table)
              for col in range(len(result.headers))]
    lines = [f"== {result.exp_id}: {result.title} =="]
    for index, row in enumerate(table):
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    if result.notes:
        lines.append(f"note: {result.notes}")
    return "\n".join(lines)


def _size_component(tag: str, size_bytes: int) -> str:
    """``tc64`` for whole KiB budgets, ``tc80000b`` otherwise."""
    if size_bytes % KIB == 0:
        return f"{tag}{size_bytes // KIB}"
    return f"{tag}{size_bytes}b"


class SimulationProvider(ABC):
    """The interface experiment modules simulate through.

    The serial :class:`SimulationCache`, the pool-backed
    :class:`repro.parallel.ParallelSimulationCache` and the remote
    :class:`repro.serve.handle.ServeHandle` implement it.  The base
    class owns the workload sources, the memo table and the metrics
    export; a provider supplies :meth:`_run`, which produces one
    simulation the memo does not hold, and optionally a ``prefetch``
    fan-out.  Memo keys are :meth:`baseline_key`/:meth:`tcor_key`
    tuples, which also name the ``sim.*`` metrics.

    Fetch throughputs (:meth:`fetch_throughput`) and workload profiles
    (:meth:`profile`) are computed here, in process, from each source's
    compiled trace, so an experiment that reads only these and
    memoized simulations never builds a workload when the trace is in
    the store.
    """

    # The store workload sources load and persist compiled traces
    # through (duck-typed as repro.parallel.store.DiskCache), if any.
    disk = None

    def __init__(self, scale: float = DEFAULT_SCALE,
                 aliases: tuple[str, ...] | None = None) -> None:
        self.scale = scale
        self.aliases = tuple(aliases) if aliases else BENCHMARK_ORDER
        self._sources: dict[str, WorkloadSource] = {}
        self._systems: dict[tuple, SystemResult] = {}
        self._fetches: dict[tuple, ThroughputResult] = {}

    @abstractmethod
    def _run(self, alias: str, config: SimulationConfig) -> SystemResult:
        """One simulation the memo does not hold yet."""

    def source(self, alias: str) -> WorkloadSource:
        """The (memoized) workload source for one benchmark alias."""
        source = self._sources.get(alias)
        if source is None:
            source = WorkloadSource(
                WorkloadIdentity(BENCHMARKS[alias], self.scale),
                store=self.disk)
            self._sources[alias] = source
        return source

    def workload(self, alias: str) -> Workload:
        """The (memoized) workload for one benchmark alias."""
        return self.source(alias).workload()

    def workloads(self) -> list[Workload]:
        return [self.workload(alias) for alias in self.aliases]

    def profile(self, alias: str) -> WorkloadProfile:
        """One benchmark's workload profile (from its trace)."""
        return self.source(alias).profile()

    def profiles(self) -> list[WorkloadProfile]:
        return [self.profile(alias) for alias in self.aliases]

    def _simulation(self, alias: str, config: SimulationConfig
                    ) -> SystemResult:
        """The memoized result of ``config`` on one benchmark.

        The memo key names the budget, the TCOR split and the L2
        variant only, so ``config`` must otherwise keep the defaults,
        as ``baseline``/``tcor`` and the experiment job matrix do."""
        key = self.memo_key(alias, config)
        result = self._systems.get(key)
        if result is None:
            result = self._systems[key] = self._run(alias, config)
        return result

    def baseline(self, alias: str, tile_cache_bytes: int) -> SystemResult:
        """Baseline simulation at one Tile Cache budget."""
        return self._simulation(alias, SimulationConfig(
            kind="baseline", tile_cache_bytes=tile_cache_bytes))

    def tcor(self, alias: str, tile_cache_bytes: int,
             l2_enhancements: bool = True,
             tcor_config: TCORConfig | None = None) -> SystemResult:
        """TCOR simulation at one total Tile Cache budget."""
        return self._simulation(alias, SimulationConfig(
            kind="tcor", tile_cache_bytes=tile_cache_bytes,
            l2_enhancements=l2_enhancements, tcor=tcor_config))

    def fetch_throughput(self, alias: str, kind: str,
                         tile_cache_bytes: int) -> ThroughputResult:
        """The Tile Fetcher's throughput for one organization at one
        Tile Cache budget, memoized under the simulation's memo key.

        Kept apart from the simulation memo, so fetch results are not
        exported as ``sim.*`` metrics.
        """
        config = SimulationConfig(kind=kind,
                                  tile_cache_bytes=tile_cache_bytes)
        key = self.memo_key(alias, config)
        result = self._fetches.get(key)
        if result is None:
            result = self._fetches[key] = run_fetch_timing(
                self.source(alias), config)
        return result

    def prefetch(self, names=None) -> int:
        """Eagerly simulate what the named experiments will need.

        Returns the number of simulations run; the default provider has
        no fan-out engine and simulates lazily instead.
        """
        return 0

    @staticmethod
    def baseline_key(alias: str, tile_cache_bytes: int) -> tuple:
        return ("baseline", alias, tile_cache_bytes)

    @staticmethod
    def tcor_key(alias: str, tile_cache_bytes: int, tcor: TCORConfig,
                  l2_enhancements: bool) -> tuple:
        # The derived partition is part of the key: two TCOR configs
        # with the same total budget but a different split (future
        # per-structure sweeps) must never alias to each other.
        return ("tcor", alias, tile_cache_bytes,
                tcor.primitive_list_cache.size_bytes,
                tcor.attribute_buffer_bytes, l2_enhancements)

    @classmethod
    def memo_key(cls, alias: str, config: SimulationConfig) -> tuple:
        """The memo key of one provider simulation (``config`` carries
        the total Tile Cache budget, as ``baseline``/``tcor`` set it)."""
        resolved = config.resolved()
        if resolved.kind == "baseline":
            return cls.baseline_key(alias,
                                    resolved.gpu.tile_cache.size_bytes)
        return cls.tcor_key(alias, config.tile_cache_bytes, resolved.tcor,
                            resolved.l2_enhancements)

    @staticmethod
    def metric_prefix(key: tuple) -> str:
        """Registry namespace for one memoized simulation.

        ``sim.baseline.CCS.tc64`` or ``sim.tcor.CCS.tc64.pl16ab47``;
        the same SystemResult lands under the same name whether it was
        simulated serially, by a pool worker, remotely, or loaded from
        disk — which is what makes parallel metrics aggregation exact.
        """
        if key[0] == "baseline":
            _, alias, tile_cache_bytes = key
            return f"sim.baseline.{alias}.{_size_component('tc', tile_cache_bytes)}"
        _, alias, tile_cache_bytes, pl_bytes, ab_bytes, l2e = key
        label = "tcor" if l2e else "tcor_no_l2"
        return (f"sim.{label}.{alias}."
                f"{_size_component('tc', tile_cache_bytes)}."
                f"{_size_component('pl', pl_bytes)}"
                f"{_size_component('ab', ab_bytes)}")

    def export_metrics(self, registry) -> int:
        """Every memoized SystemResult, flattened into ``sim.*`` gauges.

        Returns the number of metrics exported.
        """
        from repro.obs.registry import flatten

        exported = 0
        for key in sorted(self._systems, key=str):
            result = self._systems[key]
            for name, value in flatten(asdict(result),
                                       self.metric_prefix(key)).items():
                registry.gauge(name, value)
                exported += 1
        return exported


class SimulationCache(SimulationProvider):
    """Memoizes workloads and system simulations across experiments.

    Simulations run in-process through :func:`repro.api.run_simulation`.
    ``disk``, when given, is a persistent second level (duck-typed as
    :class:`repro.parallel.store.DiskCache`): memo misses probe it
    before simulating, fresh results are written through, and compiled
    traces persist in it too, so repeated runner/benchmark invocations
    skip re-simulation and workload construction entirely.
    """

    def __init__(self, scale: float = DEFAULT_SCALE,
                 aliases: tuple[str, ...] | None = None,
                 disk=None) -> None:
        super().__init__(scale=scale, aliases=aliases)
        self.disk = disk

    def _run(self, alias: str, config: SimulationConfig) -> SystemResult:
        if self.disk is not None:
            result = self.disk.get_result(self.source(alias).identity,
                                          config)
            if result is not None:
                return result
        return self._simulate(alias, config)

    def _simulate(self, alias: str, config: SimulationConfig
                  ) -> SystemResult:
        """Simulate in-process and write the result through."""
        source = self.source(alias)
        result = run_simulation(source, config)
        if self.disk is not None:
            self.disk.put_result(source.identity, config, result)
        return result


def suite_workloads(scale: float = DEFAULT_SCALE,
                    aliases: tuple[str, ...] | None = None) -> list[Workload]:
    cache = SimulationCache(scale=scale, aliases=aliases)
    return cache.workloads()


def geometric_mean_ratio(values: list[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0
