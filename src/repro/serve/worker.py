"""Pool-side worker for the simulation service.

One call simulates one micro-batch: every entry shares a (benchmark
alias, scale, animation) workload, and each request's
:class:`~repro.api.SimulationConfig` runs through the public
:func:`repro.api.simulate` facade over one
:class:`~repro.api.WorkloadSource` — the same path a direct library
call, the experiment providers and the process pool take, which is
what makes a served result byte-identical to them.  The source finds
the compiled trace once per batch: from the server's trace store when
an earlier batch stored it, otherwise by building and compiling the
workload and storing the trace for the batches that follow.

Mirrors :func:`repro.parallel.engine.simulate_job_batch`'s fork
hygiene: the batch runs under a scoped ``activation(None)`` so a
tracer inherited from the parent at fork time (whose sinks hold
duplicated file handles) never receives worker events, and the module
state is restored on the way out.

Per-entry simulation failures are *data*, not exceptions: a raising
config (e.g. an illegal cache geometry reached only at build time)
yields an ``error`` record for that entry while the rest of the batch
completes.  Deterministic failures are never worth retrying, and the
scheduler treats them accordingly.
"""

from __future__ import annotations

from repro.anim.spec import anim_from_payload
from repro.api import WorkloadSource, simulate
from repro.obs import trace as obs_trace
from repro.parallel.store import result_to_dict
from repro.serve import schema
from repro.workloads.suite import BENCHMARKS, WorkloadIdentity


def simulate_request_batch(alias: str, scale: float,
                           entries: tuple[tuple[str, dict], ...],
                           anim_payload: dict | None = None,
                           store=None) -> list[dict]:
    """Worker entry point: one trace lookup, then every config.

    ``entries`` are ``(request_key, config_payload)`` pairs; the
    return value is one JSON-able record per entry — either
    ``{"key", "result", "metrics", "invariant_failures"}`` or
    ``{"key", "error"}``.  ``anim_payload`` (an ``AnimationSpec``
    payload, shared by the whole batch) selects the coherent
    multi-frame animated workload.  ``store`` is the server's
    :class:`~repro.parallel.store.DiskCache` (or ``None``), read and
    written for compiled traces.  Must stay a module-level function:
    it is pickled by name into the process pool.
    """
    with obs_trace.activation(None):
        anim = (anim_from_payload(anim_payload)
                if anim_payload is not None else None)
        source = WorkloadSource(
            WorkloadIdentity(BENCHMARKS[alias], scale, anim), store=store)
        records: list[dict] = []
        for key, config_payload in entries:
            try:
                run = simulate(source,
                               schema.config_from_payload(config_payload))
            except Exception as exc:
                records.append(
                    {"key": key,
                     "error": f"{type(exc).__name__}: {exc}"})
                continue
            records.append({
                "key": key,
                "result": result_to_dict(run.result),
                "metrics": dict(run.metrics),
                "invariant_failures": list(run.invariant_failures),
            })
        return records
