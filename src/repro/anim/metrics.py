"""Registry namespaces of the animation subsystem.

The experiment family ``fig_re`` publishes its sweep under two new
namespaces:

- ``anim.<alias>.*`` — sequence shape (frames, churn percentage,
  primitive count), one gauge set per benchmark row;
- ``re.<alias>.c<churn>.*`` — Rendering Elimination outcomes at one
  churn setting (skip percentage, traffic and energy deltas vs RE
  off, attribute hit ratios for the OPT interaction).

The absolute names are minted here — and only here — so experiment
code publishes the subsystem's gauges through these helpers instead of
spelling registry names itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class EnergySplitStats:
    """One energy report's memory/compute split, as a registry source.

    A snapshot rather than a live counter set: energy is derived from
    finished simulation results, so the registry reads it at snapshot
    time like any other stats source and the conservation rule below
    can reference its fields by name.
    """

    memory_nj: float = 0.0
    compute_nj: float = 0.0
    total_nj: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


def _component(text) -> str:
    """A metric-name path component (dots would split the namespace)."""
    return str(text).replace(".", "_")


def register_sequence_gauges(registry, alias: str, values: dict) -> None:
    """``anim.<alias>.<name>`` gauges describing one animated sequence."""
    base = f"anim.{_component(alias)}"
    for name, value in values.items():
        registry.gauge(f"{base}.{_component(name)}", float(value))


def register_re_gauges(registry, alias: str, churn_pct: int,
                       values: dict) -> None:
    """``re.<alias>.c<churn>.<name>`` gauges for one sweep cell."""
    base = f"re.{_component(alias)}.c{int(churn_pct):03d}"
    for name, value in values.items():
        registry.gauge(f"{base}.{_component(name)}", float(value))


def register_energy_gauges(registry, alias: str, churn_pct: int,
                           report) -> None:
    """``re.<alias>.c<churn>.energy.*`` metrics for one
    :class:`~repro.energy.EnergyReport`, plus the conservation rule.

    The rule is the satellite invariant of the energy split: the
    memory-hierarchy and compute sides must sum to the total, so a
    discarded tile that drops raster energy cannot silently drop (or
    double-count) anything else.  Exact equality is safe because the
    report's ``total_gpu_nj`` is minted by the same float addition the
    registry check performs.  Register one report per ``(alias,
    churn)`` cell: a second *distinct* report under the same prefix
    would sum in snapshots, and float addition does not reassociate.
    """
    base = f"re.{_component(alias)}.c{int(churn_pct):03d}.energy"
    split = EnergySplitStats()
    split.memory_nj = float(report.memory_hierarchy_nj)
    split.compute_nj = float(report.compute_nj)
    split.total_nj = float(report.total_gpu_nj)
    registry.register(base, split)
    registry.expect_sum(
        f"GPU energy conservation ({alias} @ churn {int(churn_pct)}%): "
        f"memory + compute == total",
        (f"{base}.memory_nj", f"{base}.compute_nj"),
        (f"{base}.total_nj",))
