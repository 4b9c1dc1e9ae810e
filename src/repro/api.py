"""Public facade: the one import downstream code needs.

Two entry points cover the library's use cases:

- :func:`simulate` — run one workload through one memory organization
  and get a :class:`RunResult` (the :class:`SystemResult` plus a
  metrics snapshot and its conservation-invariant check);
- :func:`run_experiment` — regenerate one of the paper's tables or
  figures and get a :class:`Report`.

Inputs are frozen dataclasses (:class:`SimulationConfig`), so a config
can be shared, hashed and reused across runs without defensive copies.

Every simulation, whether from these calls, the experiment providers,
the process pool or the service, goes through :func:`run_simulation`.
It resolves the config, finds the workload's compiled trace once
through a :class:`WorkloadSource`, and picks the replay or live engine.
The Tile Fetcher timing model (Figs. 23/24) runs through
:func:`run_fetch_timing`, under the same engine rule.

    from repro.api import SimulationConfig, simulate
    from repro.workloads import BENCHMARKS, build_workload

    workload = build_workload(BENCHMARKS["CCS"], scale=0.25)
    base = simulate(workload, SimulationConfig(kind="baseline"))
    tcor = simulate(workload, SimulationConfig(kind="tcor"))
    print(tcor.result.pb_l2_accesses / base.result.pb_l2_accesses)

Heavy modules (the simulator, the experiment driver) import lazily
inside the functions, keeping ``import repro`` fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

from repro.config import DEFAULT_GPU, GPUConfig, TCORConfig
from repro.obs.registry import MetricsRegistry, Observation

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentResult, SimulationProvider
    from repro.tcor.system import SystemResult
    from repro.timing.tiling_timing import ThroughputResult
    from repro.workloads.suite import Workload, WorkloadProfile

__all__ = [
    "Report",
    "RunResult",
    "SimulationConfig",
    "WorkloadSource",
    "connect",
    "run_experiment",
    "run_fetch_timing",
    "run_simulation",
    "simulate",
    "simulation_cache",
]

_KINDS = ("baseline", "tcor")


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Frozen description of one simulation to run.

    ``kind`` selects the memory organization (``"baseline"`` or
    ``"tcor"``); every other field has the simulator's default and only
    applies where it makes sense (``l2_enhancements``, ``tcor`` and
    ``interleaved_lists`` are TCOR-only; ``tile_cache_bytes`` is the
    unified budget for the baseline and the total split budget for
    TCOR).
    """

    kind: str = "tcor"
    tile_cache_bytes: int | None = None
    l2_enhancements: bool = True
    interleaved_lists: bool = True
    include_background: bool = True
    # Rendering Elimination (repro.anim): discard fetch-phase work for
    # tiles whose input signature matches the previous frame.  Only
    # meaningful on multi-frame workloads; a single frame never skips.
    rendering_elimination: bool = False
    tcor: TCORConfig | None = None
    gpu: GPUConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"kind must be one of {_KINDS}, got {self.kind!r}")

    def resolved(self) -> "SimulationConfig":
        """The same simulation with every default made explicit.

        ``gpu`` and, for TCOR, ``tcor`` are filled in the way the
        simulator fills them; ``tile_cache_bytes`` is folded into the
        one it sizes (the baseline's unified Tile Cache, or TCOR's
        split); fields the kind ignores take their defaults.  Configs
        that run the same simulation therefore resolve to equal values,
        and every result key is derived from this form.
        """
        gpu = self.gpu or DEFAULT_GPU
        if self.kind == "baseline":
            if self.tile_cache_bytes is not None:
                gpu = gpu.with_tile_cache_size(self.tile_cache_bytes)
            return SimulationConfig(
                kind="baseline", include_background=self.include_background,
                rendering_elimination=self.rendering_elimination, gpu=gpu)
        tcor = self.tcor
        if tcor is None:
            tcor = (TCORConfig.for_total_size(self.tile_cache_bytes)
                    if self.tile_cache_bytes is not None else TCORConfig())
        return replace(self, tile_cache_bytes=None, tcor=tcor, gpu=gpu)


@dataclass(frozen=True, slots=True)
class RunResult:
    """One finished simulation.

    ``result`` is the raw :class:`SystemResult`; ``metrics`` is the
    flat ``{dotted.name: number}`` registry snapshot taken right after
    the run; ``invariant_failures`` lists any conservation invariants
    the snapshot violated (empty on a healthy run).  ``engine`` names
    the engine that ran (``"replay"`` or ``"live"``), and
    ``replay_refusal`` says why replay stood aside when it was tried
    and refused (``None`` when it ran, or when ``engine="live"`` was
    asked for).
    """

    result: "SystemResult"
    config: SimulationConfig
    metrics: Mapping[str, float] = field(default_factory=dict)
    invariant_failures: tuple[str, ...] = ()
    engine: str = "live"
    replay_refusal: str | None = None

    @property
    def ok(self) -> bool:
        return not self.invariant_failures


@dataclass(frozen=True, slots=True)
class Report:
    """One experiment's regenerated tables plus the run's metrics."""

    name: str
    scale: float
    tables: tuple["ExperimentResult", ...]
    metrics: Mapping[str, float] = field(default_factory=dict)

    def table(self, exp_id: str) -> "ExperimentResult":
        for result in self.tables:
            if result.exp_id == exp_id:
                return result
        raise KeyError(exp_id)

    def __str__(self) -> str:
        from repro.experiments.common import format_table

        return "\n\n".join(format_table(result) for result in self.tables)


_ENGINES = ("auto", "live", "replay")


class WorkloadSource:
    """One workload as every simulation path finds it.

    ``identity`` (a :class:`~repro.workloads.suite.WorkloadIdentity`)
    says what the workload is built from.  What a run needs is found
    lazily and at most once: the compiled trace comes from the workload
    memo, then from ``store.get_trace``, then from a build + compile
    that is persisted with ``store.put_trace``; the workload itself is
    built only when a live engine or a compile needs it, and its
    profile (:meth:`profile`) comes from the trace.  ``store``
    is duck-typed as :class:`~repro.parallel.store.DiskCache`;
    ``None`` keeps everything in memory.
    """

    def __init__(self, identity, store=None,
                 workload: "Workload | None" = None) -> None:
        self.identity = identity
        self.store = store
        self._workload = workload
        self._trace = None
        self._profile = None

    @classmethod
    def of(cls, workload: "Workload") -> "WorkloadSource":
        """A source over an already built workload (no store)."""
        from repro.workloads.suite import WorkloadIdentity

        return cls(WorkloadIdentity.of(workload), workload=workload)

    def workload(self) -> "Workload":
        if self._workload is None:
            self._workload = self.identity.build()
            self._workload.compiled_trace = self._trace
        return self._workload

    def trace(self):
        """The workload's compiled access trace (memo, store, compile)."""
        if self._trace is None:
            if self._workload is not None:
                self._trace = self._workload.compiled_trace
            if self._trace is None and self.store is not None:
                self._trace = self.store.get_trace(self.identity)
            if self._trace is None:
                from repro.replay import compiled_trace_for

                self._trace = compiled_trace_for(self.workload())
                if self.store is not None:
                    self.store.put_trace(self.identity, self._trace)
            elif self._workload is not None:
                self._workload.compiled_trace = self._trace
        return self._trace

    def profile(self) -> "WorkloadProfile":
        """The workload's profile, derived from the compiled trace, so a
        source whose trace comes from the store builds nothing."""
        if self._profile is None:
            from repro.workloads.suite import WorkloadProfile

            screen = (self._workload.screen if self._workload is not None
                      else self.identity.screen)
            self._profile = WorkloadProfile.from_trace(
                self.trace(), self.identity.spec, screen,
                self.identity.scale)
        return self._profile


def _run_engine(engine: str, obs: Observation | None, replayed, live):
    """The engine rule every run through this module follows.

    ``"auto"`` calls ``replayed()`` unless :func:`repro.replay.
    replay_allowed` names a reason not to (a tracer is attached,
    ``REPRO_NO_REPLAY`` is set) or the kernels raise
    :class:`~repro.replay.ReplayUnsupportedError` for a configuration
    outside what they model; then it calls ``live()``.  ``"live"``
    always calls ``live()``; ``"replay"`` lets the refusal raise.
    Returns ``(result, engine that ran, refusal message or None)``.
    """
    from repro import replay

    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    refusal = None
    if engine != "live":
        try:
            reason = replay.replay_allowed(obs)
            if reason is not None:
                raise replay.ReplayUnsupportedError(reason)
            return replayed(), "replay", None
        except replay.ReplayUnsupportedError as error:
            if engine == "replay":
                raise
            refusal = str(error)
    return live(), "live", refusal


def run_simulation(source: WorkloadSource, config: SimulationConfig,
                   obs: Observation | None = None,
                   engine: str = "auto") -> "SystemResult":
    """The one simulation path: every caller reaches the engines here.

    ``config`` is resolved once.  The engine is chosen by the rule of
    :func:`_run_engine`: the replay kernels run over the source's
    compiled trace (bit-identical to the live simulator), and the live
    simulator runs on the source's workload, built only at that point.
    Metrics are registered into ``obs`` when given.
    """
    return _simulation(source, config, obs, engine)[0]


def _simulation(source: WorkloadSource, config: SimulationConfig,
                obs: Observation | None, engine: str) -> tuple:
    """:func:`run_simulation` with :func:`_run_engine`'s provenance."""
    from repro import replay
    from repro.tcor import system

    config = config.resolved()

    def replayed() -> "SystemResult":
        if config.kind == "baseline":
            outcome = replay.replay_baseline(
                source.trace(), gpu=config.gpu,
                include_background=config.include_background,
                rendering_elimination=config.rendering_elimination)
        else:
            outcome = replay.replay_tcor(
                source.trace(), gpu=config.gpu, tcor=config.tcor,
                l2_enhancements=config.l2_enhancements,
                interleaved_lists=config.interleaved_lists,
                include_background=config.include_background,
                rendering_elimination=config.rendering_elimination)
        if obs is not None:
            replay.observe_replay(obs, outcome)
        return outcome.result

    def live() -> "SystemResult":
        if config.kind == "baseline":
            return system.simulate_baseline(
                source.workload(), gpu=config.gpu,
                include_background=config.include_background,
                rendering_elimination=config.rendering_elimination, obs=obs)
        return system.simulate_tcor(
            source.workload(), gpu=config.gpu, tcor=config.tcor,
            l2_enhancements=config.l2_enhancements,
            interleaved_lists=config.interleaved_lists,
            include_background=config.include_background,
            rendering_elimination=config.rendering_elimination, obs=obs)

    return _run_engine(engine, obs, replayed, live)


def run_fetch_timing(source: WorkloadSource, config: SimulationConfig,
                     engine: str = "auto") -> "ThroughputResult":
    """The Tile Fetcher's throughput (Figs. 23/24) for one organization.

    ``config`` names the organization as for :func:`run_simulation`
    and is resolved the same way; the engine rule is the same too.
    The replay engine is the fetch-timing kernel over frame 0 of the
    source's compiled trace; the live engine is
    :func:`repro.timing.tiling_timing.tile_fetcher_throughput` on the
    source's workload.  The timing model has no L2 enhancements switch,
    no contiguous TCOR lists and no Rendering Elimination, so a config
    asking for one raises :class:`~repro.timing.TimingUnsupportedError`
    on either engine.
    """
    from repro import replay
    from repro.timing import tiling_timing

    config = config.resolved()
    unmodelled = [name for name, asked in (
        ("l2_enhancements=False", not config.l2_enhancements),
        ("interleaved_lists=False", not config.interleaved_lists),
        ("rendering_elimination=True", config.rendering_elimination),
    ) if asked]
    if unmodelled:
        raise tiling_timing.TimingUnsupportedError(
            f"the Tile Fetcher timing model does not model "
            f"{', '.join(unmodelled)}")
    options = {"gpu": config.gpu, "tcor": config.tcor,
               "include_background": config.include_background}
    return _run_engine(
        engine, None,
        lambda: replay.replay_fetch_timing(source.trace(), config.kind,
                                           **options),
        lambda: tiling_timing.tile_fetcher_throughput(
            source.workload(), config.kind, **options))[0]


def simulate(workload: "Workload | WorkloadSource",
             config: SimulationConfig | None = None,
             *, obs: Observation | None = None,
             engine: str = "auto") -> RunResult:
    """Run ``workload`` through the organization ``config`` describes.

    ``workload`` is a built :class:`~repro.workloads.suite.Workload`,
    or a :class:`WorkloadSource` that finds the workload and its
    compiled trace lazily.  ``engine`` is :func:`run_simulation`'s:
    ``"auto"`` (the default) replays when the run is eligible and falls
    back to the live simulator when it is not, ``"live"`` and
    ``"replay"`` force one engine.

    ``obs`` threads a caller-owned :class:`Observation` through the run
    (to share a registry across several simulations, or to attach a
    tracer); by default each call gets a fresh one, so ``metrics`` and
    ``invariant_failures`` cover exactly this run.
    """
    source = (workload if isinstance(workload, WorkloadSource)
              else WorkloadSource.of(workload))
    config = config if config is not None else SimulationConfig()
    if obs is None:
        obs = Observation(MetricsRegistry())
    result, ran, refusal = _simulation(source, config, obs, engine)
    return RunResult(result=result, config=config,
                     metrics=obs.snapshot(),
                     invariant_failures=tuple(obs.registry.check_invariants()),
                     engine=ran, replay_refusal=refusal)


def simulation_cache(scale: float, *,
                     aliases: tuple[str, ...] | None = None,
                     jobs: int = 1,
                     disk: bool = True) -> "SimulationProvider":
    """A memoizing simulation provider for experiment/benchmark runs.

    ``jobs > 1`` returns the process-pool fan-out provider; ``disk``
    keeps the persistent result store enabled (``$REPRO_CACHE_DIR`` or
    ``.repro-cache/``).
    """
    from repro.parallel import DiskCache, ParallelSimulationCache

    store = DiskCache() if disk else None
    return ParallelSimulationCache(scale=scale, aliases=aliases,
                                   jobs=jobs, disk=store)


def connect(endpoints, *, scale: float = 1.0,
            aliases: tuple[str, ...] | None = None,
            timeout_s: float = 600.0) -> "SimulationProvider":
    """A remote simulation provider over a running ``tcor-serve``
    worker or cluster router.

    ``endpoints`` is one ``"host:port"`` string, a ``(host, port)``
    pair, or a list of either for client-side failover.  The returned
    :class:`~repro.serve.handle.ServeHandle` is a drop-in for
    :func:`simulation_cache` — same provider contract, byte-identical
    results — with the simulations executed (and coalesced, cached and
    sharded) by the service.
    """
    from repro.serve.handle import connect as serve_connect

    return serve_connect(endpoints, scale=scale, aliases=aliases,
                         timeout_s=timeout_s)


def run_experiment(name: str, *, scale: float = 1.0, jobs: int = 1,
                   benchmarks: tuple[str, ...] | None = None,
                   cache: "SimulationProvider | None" = None,
                   disk: bool = False) -> Report:
    """Regenerate one of the paper's tables/figures as a :class:`Report`.

    ``name`` is an experiment id (``"fig14"``, ``"tables"``, ... — the
    same ids ``tcor-experiments`` accepts, including paired-figure
    aliases like ``"fig15"``).  ``jobs`` fans the simulations out over
    worker processes; ``cache`` reuses a provider across calls (e.g.
    from :func:`simulation_cache`); ``disk`` enables the persistent
    result store when no provider is passed.
    """
    from repro.experiments import driver

    store = None
    if cache is None and disk:
        from repro.parallel import DiskCache

        store = DiskCache()
    registry = MetricsRegistry()
    results = driver.run_experiments([name], scale=scale,
                                     aliases=benchmarks, jobs=jobs,
                                     disk=store, cache=cache,
                                     registry=registry)
    return Report(name=name, scale=scale, tables=tuple(results),
                  metrics=registry.snapshot())
