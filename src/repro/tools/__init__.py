"""Developer tooling: workload inspection."""

from repro.tools.inspect_workload import inspect as inspect_workload

__all__ = ["inspect_workload"]
