"""Workloads: trace records, the Table II benchmark suite, and the
background (non-Parameter-Buffer) traffic that shares the L2."""

from repro.workloads.trace import Access, Op, Region
from repro.workloads.suite import (
    BENCHMARKS,
    BENCHMARK_ORDER,
    BenchmarkSpec,
    Workload,
    WorkloadIdentity,
    build_workload,
)
from repro.workloads.background import BackgroundTrafficModel

__all__ = [
    "Access",
    "BackgroundTrafficModel",
    "BENCHMARKS",
    "BENCHMARK_ORDER",
    "BenchmarkSpec",
    "Op",
    "Region",
    "Workload",
    "WorkloadIdentity",
    "build_workload",
]
