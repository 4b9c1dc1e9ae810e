"""Metrics registry: one hierarchical namespace over every counter.

The simulator's five ``*Stats`` classes each keep their own counters
(one owner per counter — no double counting); the registry does not
copy them, it *registers* the live objects and reads them out through
the shared :class:`StatsLike` protocol at snapshot time.  A snapshot is
a flat ``{dotted.name: number}`` dict:

    live.l2.read_misses                  (registered CacheStats)
    live.l2.by_region.pb_lists.reads     (region split, by enum name)
    live.attribute_cache.read_hits       (registered AttributeCacheStats)
    live.system.pb_l2_reads              (explicit counter)

Registering the *same* object under the same prefix twice is a no-op;
registering a *different* object under the same prefix accumulates
(successive per-frame cache instances sum into one series).

The registry also carries the conservation invariants the integration
tests assert: structural ones every cache-like source must satisfy
(``accesses == reads + writes`` ...) plus cross-structure sum rules
added with :meth:`MetricsRegistry.expect_sum`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Protocol, runtime_checkable


@runtime_checkable
class StatsLike(Protocol):
    """What the registry needs from a stats object.

    Every ``*Stats`` class in the simulator implements this pair:
    ``as_dict`` surfaces all counters (and derived ratios), and
    ``register`` hands the live object to a registry under a prefix.
    """

    def as_dict(self) -> dict: ...

    def register(self, registry: "MetricsRegistry", prefix: str) -> None: ...


class MetricsInvariantError(AssertionError):
    """A conservation invariant does not hold over the registry."""


def _metric_key(part) -> str:
    """Stable dotted-name component for a dict key (Region enums render
    by name, everything else by ``str``)."""
    name = getattr(part, "name", None)
    if isinstance(name, str):
        return name.lower()
    return str(part)


def flatten(mapping: dict, prefix: str = "") -> dict:
    """Recursively flatten nested dicts to dotted numeric leaves.

    Non-numeric leaves (labels, paths) are dropped: metrics are numbers.
    Booleans count as numbers (0/1) so flag-style gauges survive.
    """
    flat: dict = {}
    for key, value in mapping.items():
        name = f"{prefix}.{_metric_key(key)}" if prefix else _metric_key(key)
        if isinstance(value, dict):
            flat.update(flatten(value, name))
        elif isinstance(value, (int, float)):
            flat[name] = value
    return flat


# Structural invariants every cache-like source must satisfy, expressed
# over one source's flattened counter dict: (description, lhs counter,
# rhs counters whose sum must equal it).  A rule only applies when all
# of its counters exist in the source.
_STRUCTURAL_RULES = (
    ("accesses == reads + writes", "accesses", ("reads", "writes"), ()),
    ("misses == read_misses + write_misses",
     "misses", ("read_misses", "write_misses"), ()),
    ("hits == accesses - misses", "hits", ("accesses",), ("misses",)),
    ("read_hits == reads - read_misses",
     "read_hits", ("reads",), ("read_misses",)),
)


class Histogram:
    """Fixed-bucket counting histogram (cumulative, Prometheus-style).

    ``bounds`` are the inclusive upper bucket edges; one implicit
    ``+Inf`` bucket catches the rest.  Snapshots flatten to
    ``<name>.count``, ``<name>.sum`` and ``<name>.bucket.le_<edge>``.
    """

    def __init__(self, bounds: Iterable[float]) -> None:
        self.bounds = tuple(sorted(bounds))
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def as_dict(self) -> dict:
        summary: dict = {"count": self.count, "sum": self.sum}
        cumulative = 0
        buckets: dict = {}
        for edge, bucket in zip(self.bounds, self.bucket_counts):
            cumulative += bucket
            buckets[f"le_{edge:g}"] = cumulative
        buckets["le_inf"] = self.count
        summary["bucket"] = buckets
        return summary

    def register(self, registry: "MetricsRegistry", prefix: str) -> None:
        registry.register(prefix, self)


class MetricsRegistry:
    """Named, hierarchical counters/gauges/histograms.

    Three kinds of entries share the dotted namespace:

    - **registered sources** (live ``StatsLike`` objects, read at
      snapshot time — the one source of truth for simulator counters);
    - **counters** (monotonic, owned by the registry, via :meth:`count`);
    - **gauges** (last-write-wins, via :meth:`gauge`).
    """

    def __init__(self) -> None:
        self._sources: dict[str, list] = {}
        self._source_ids: set[tuple[str, int]] = set()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sum_rules: list[tuple[str, tuple, tuple]] = []

    # -- population ----------------------------------------------------
    def register(self, prefix: str, source) -> None:
        """Attach a live stats object under ``prefix`` (idempotent per
        object; distinct objects under one prefix sum in snapshots)."""
        key = (prefix, id(source))
        if key in self._source_ids:
            return
        self._source_ids.add(key)
        self._sources.setdefault(prefix, []).append(source)

    def count(self, name: str, delta: float = 1) -> None:
        """Increment a registry-owned monotonic counter."""
        self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (last write wins)."""
        self._gauges[name] = value

    def histogram(self, name: str,
                  bounds: Iterable[float]) -> Histogram:
        """Get-or-create a histogram owned by the registry."""
        existing = self._histograms.get(name)
        if existing is None:
            existing = self._histograms[name] = Histogram(bounds)
        return existing

    # -- reading -------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat ``{dotted.name: number}`` over everything registered."""
        flat: dict = {}
        for prefix, sources in self._sources.items():
            for source in sources:
                for name, value in flatten(source.as_dict(), prefix).items():
                    flat[name] = flat.get(name, 0) + value
        for name, histogram in self._histograms.items():
            flat.update(flatten(histogram.as_dict(), name))
        flat.update(self._counters)
        flat.update(self._gauges)
        return flat

    def prefixes(self) -> list[str]:
        return sorted(self._sources)

    # -- invariants ----------------------------------------------------
    def expect_sum(self, description: str, lhs: Iterable[str],
                   rhs: Iterable[str]) -> None:
        """Require ``sum(lhs counters) == sum(rhs counters)`` at check
        time.  This is how cross-structure conservation rules (PB L2
        accounting, tap-vs-counter equality) attach to the registry.
        Idempotent: re-attaching an identical rule is a no-op, so
        several simulations can share one registry."""
        rule = (description, tuple(lhs), tuple(rhs))
        if rule not in self._sum_rules:
            self._sum_rules.append(rule)

    def sum_rules(self) -> list[tuple[str, tuple, tuple]]:
        """The attached sum rules as ``(description, lhs, rhs)``, in
        the order they were attached."""
        return list(self._sum_rules)

    def check_invariants(self) -> list[str]:
        """Every violated invariant as a human-readable string."""
        failures: list[str] = []
        for prefix, sources in self._sources.items():
            for source in sources:
                flat = flatten(source.as_dict())
                for description, target, plus, minus in _STRUCTURAL_RULES:
                    if target not in flat:
                        continue
                    if any(name not in flat for name in plus + minus):
                        continue
                    expected = (sum(flat[name] for name in plus)
                                - sum(flat[name] for name in minus))
                    if flat[target] != expected:
                        failures.append(
                            f"{prefix}: {description} "
                            f"({flat[target]} != {expected})")
        snapshot = self.snapshot()
        for description, lhs, rhs in self._sum_rules:
            missing = [name for name in lhs + rhs if name not in snapshot]
            if missing:
                failures.append(f"{description}: missing {missing}")
                continue
            left = sum(snapshot[name] for name in lhs)
            right = sum(snapshot[name] for name in rhs)
            if left != right:
                failures.append(f"{description} ({left} != {right})")
        return failures

    def assert_invariants(self) -> None:
        failures = self.check_invariants()
        if failures:
            raise MetricsInvariantError("; ".join(failures))


class Observation:
    """The handle a caller threads through one simulation.

    Bundles the registry the run's stats register into and (optionally)
    the tracer capturing its event stream; ``simulate_baseline`` /
    ``simulate_tcor`` accept one as their ``obs`` argument.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer=None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        if tracer is not None and tracer.registry is None:
            tracer.registry = self.registry
        self.tracer = tracer

    def expect_sum(self, description: str, lhs: Iterable[str],
                   rhs: Iterable[str]) -> None:
        self.registry.expect_sum(description, lhs, rhs)

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def assert_invariants(self) -> None:
        self.registry.assert_invariants()
