"""Command line: ``python -m repro.lint`` / ``repro-lint``.

Exit status: 0 when clean, 1 when violations were found (unless
``--no-fail-on-violation``), 2 on usage errors.

``--semantic`` layers the whole-program passes (call graph, CFG
dataflow) on top of the per-file rules: the SIM2xx async-concurrency
family (blocking calls on the event loop, atomicity across awaits) and
the SIM3xx contract family (env-var discipline).  ``--explain SIM201``
prints one rule's full documentation.
"""

from __future__ import annotations

import argparse

from repro.lint.core import all_rules
from repro.lint.engine import lint_paths
from repro.lint.reporters import (REPORTERS, render_explain,
                                  render_rule_list)

DEFAULT_PATHS = ["src", "benchmarks", "examples"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=("Simulator-aware static analysis: determinism, "
                     "stats-conservation and event-loop rules for the "
                     "TCOR reproduction."),
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help=f"files or directories (default: "
                             f"{' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--format", choices=sorted(REPORTERS),
                        default="text", help="report format")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run exclusively")
    parser.add_argument("--ignore", metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--semantic", action="store_true",
                        help="also run the whole-program SIM2xx (async "
                             "concurrency) and SIM3xx (contract analysis) "
                             "rules")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the lint caches")
    parser.add_argument("--cache-file", metavar="PATH",
                        help="cache location (default: ./.lint-cache.json)")
    parser.add_argument("--semantic-cache-file", metavar="PATH",
                        help="semantic fact/finding cache location "
                             "(default: ./.lint-semantic-cache.json)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--explain", metavar="CODE",
                        help="print one rule's full documentation and exit")
    parser.add_argument("--fail-on-violation", dest="fail_on_violation",
                        action=argparse.BooleanOptionalAction, default=True,
                        help="exit 1 when violations are found (default)")
    return parser


def _parse_codes(raw: str | None) -> set[str] | None:
    if not raw:
        return None
    return {code.strip().upper() for code in raw.split(",") if code.strip()}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0

    if args.explain:
        text = render_explain(args.explain.strip().upper())
        if text is None:
            parser.error(f"unknown rule code {args.explain!r}; "
                         "see --list-rules")
        print(text)
        return 0

    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore)
    from repro.lint.semantic.rules import semantic_rules
    known = {rule.code for rule in all_rules()}
    known |= {rule.code for rule in semantic_rules()}
    unknown = ((select or set()) | (ignore or set())) - known
    if unknown:
        parser.error(f"unknown rule code(s): {', '.join(sorted(unknown))}; "
                     "see --list-rules")

    try:
        result = lint_paths(
            args.paths or DEFAULT_PATHS,
            select=select,
            ignore=ignore,
            use_cache=not args.no_cache,
            cache_file=args.cache_file,
            semantic=args.semantic,
            semantic_cache_file=args.semantic_cache_file,
        )
    except FileNotFoundError as error:
        parser.error(str(error))

    print(REPORTERS[args.format](result))
    if result.violations and args.fail_on_violation:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
