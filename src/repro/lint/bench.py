"""Lint-pass benchmark: cold vs. warm fact-cache wall-clock.

The two-tier semantic cache exists to make ``repro-lint --semantic``
cheap enough for CI and pre-commit: fact extraction dominates the cold
pass, and a byte-identical rerun should pay only for JSON loading plus
the program-scope rule (SIM304), which is recomputed every pass by
design.  This module measures that contract over the full default
tree with every family enabled and emits a small
JSON document (``BENCH_PR9.json`` in CI) so regressions in either the
cold cost or the warm hit-rate show up as artifact diffs::

    python -m repro.lint.bench --json BENCH_PR9.json

The warm pass is asserted to serve every fact and finding from cache;
a partial hit-rate means the cache key went unstable (facts no longer
JSON-round-trip, or the rules signature churned), which silently turns
every CI lint run into a cold one.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.lint.engine import lint_paths

DEFAULT_PATHS = ["src", "benchmarks", "examples"]


def _timed_pass(paths, cache_dir: Path) -> dict:
    start = time.perf_counter()
    result = lint_paths(
        paths,
        semantic=True,
        use_cache=True,
        cache_file=cache_dir / "lint-cache.json",
        semantic_cache_file=cache_dir / "semantic-cache.json",
    )
    elapsed = time.perf_counter() - start
    return {
        "wall_s": round(elapsed, 4),
        "files_checked": result.files_checked,
        "files_from_cache": result.files_from_cache,
        "modules": result.semantic_modules,
        "facts_from_cache": result.semantic_facts_from_cache,
        "facts_computed": result.semantic_facts_computed,
        "findings_from_cache": result.semantic_findings_from_cache,
        "findings_computed": result.semantic_findings_computed,
        "violations": len(result.violations),
    }


def run_bench(paths=None) -> dict:
    """Cold and warm full-tree semantic passes in a fresh cache dir."""
    paths = paths or DEFAULT_PATHS
    with tempfile.TemporaryDirectory(prefix="lint-bench-") as tmp:
        cache_dir = Path(tmp)
        cold = _timed_pass(paths, cache_dir)
        warm = _timed_pass(paths, cache_dir)
    speedup = cold["wall_s"] / warm["wall_s"] if warm["wall_s"] else None
    return {
        "benchmark": "lint-semantic-cache",
        "paths": list(paths),
        "cold": cold,
        "warm": warm,
        "speedup": round(speedup, 2) if speedup else None,
        "warm_fully_cached": (warm["facts_computed"] == 0
                              and warm["findings_computed"] == 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.bench",
        description="cold vs. warm semantic-lint wall-clock benchmark")
    parser.add_argument("paths", nargs="*", default=None,
                        help=f"trees to lint (default: "
                             f"{' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the report as JSON")
    args = parser.parse_args(argv)

    report = run_bench(args.paths or None)
    print(f"cold: {report['cold']['wall_s']:.2f}s "
          f"({report['cold']['facts_computed']} facts computed), "
          f"warm: {report['warm']['wall_s']:.2f}s "
          f"({report['warm']['facts_from_cache']} facts cached), "
          f"speedup {report['speedup']}x")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    if not report["warm_fully_cached"]:
        print("warm pass recomputed facts or findings: the cache key "
              "is unstable", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
