"""repro.lint — simulator-aware static analysis.

An AST-based lint pass with rules specific to a cache-simulator oracle:
determinism (no module-global RNG), stats conservation (every counter is
incremented and surfaced), sentinels imported rather than re-declared,
no swallowed exceptions and no private reach-through; ``--semantic``
adds the whole-program event-loop and env-var rules.  See
``python -m repro.lint --list-rules`` for the catalogue.
"""

from repro.lint.core import (
    FileContext,
    FileRule,
    ProjectRule,
    Rule,
    Violation,
    all_rules,
    get_rule,
    register,
)
from repro.lint.engine import LintResult, lint_paths

__all__ = [
    "FileContext",
    "FileRule",
    "LintResult",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register",
]
