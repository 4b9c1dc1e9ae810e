"""Parallel experiment engine: process-pool fan-out + persistent cache.

Three layers (see DESIGN.md, "Parallel experiment engine"):

- :class:`~repro.parallel.engine.ParallelSimulationCache` — a drop-in
  :class:`~repro.experiments.common.SimulationCache` that prefetches
  the experiment job matrix across a process pool;
- :class:`~repro.parallel.store.DiskCache` — a content-addressed
  on-disk store keyed by :func:`~repro.parallel.store.simulation_key`
  (workload identity, resolved config, simulator-code signature), so
  repeated invocations skip simulation entirely and any simulator edit
  invalidates cleanly;
- the hot-path tuning the equivalence suite gates lives with the
  simulator itself (``repro/tcor/system.py``, ``repro/caches``).
"""

from repro.parallel.engine import (
    EXPERIMENT_VARIANTS,
    ParallelSimulationCache,
    SimJob,
    enumerate_jobs,
    simulate_job_batch,
)
from repro.parallel.store import (
    DEFAULT_CACHE_DIR,
    DiskCache,
    experiment_code_signature,
    result_from_dict,
    result_to_dict,
    simulation_code_signature,
    simulation_key,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DiskCache",
    "EXPERIMENT_VARIANTS",
    "ParallelSimulationCache",
    "SimJob",
    "enumerate_jobs",
    "experiment_code_signature",
    "result_from_dict",
    "result_to_dict",
    "simulate_job_batch",
    "simulation_code_signature",
    "simulation_key",
]
