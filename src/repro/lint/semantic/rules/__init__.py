"""Semantic rule catalogue (SIM201, SIM202, SIM304).

Semantic rules live in their own registry — they need a
:class:`~repro.lint.semantic.model.Program`, not a single file's AST,
so they cannot implement the FileRule/ProjectRule protocols.  Two
scopes exist:

- ``scope = "module"`` — findings for a module depend only on the
  module and its (transitive) imports, so they are cached per module
  keyed by its dependency signature;
- ``scope = "program"`` — findings depend on the *whole* file set
  (a table declared in one module, checked in every other) and are
  recomputed every pass from cached facts.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.core import Violation


class SemanticRule:
    """Base: code/name/description plus a scope marker."""

    code: str = ""
    name: str = ""
    description: str = ""
    scope: str = "module"  # "module" | "program"

    def check_module(self, program, module: str) -> Iterable[Violation]:
        raise NotImplementedError

    def check_program(self, program) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(self, path: str, line: int, col: int,
                  message: str) -> Violation:
        return Violation(path=path, line=line, col=col, rule=self.code,
                         message=message)


_SEMANTIC_REGISTRY: dict[str, SemanticRule] = {}


def register_semantic(rule_cls: type) -> type:
    rule = rule_cls()
    if not rule.code:
        raise ValueError(f"{rule_cls.__name__} has no code")
    if rule.code in _SEMANTIC_REGISTRY:
        raise ValueError(f"duplicate semantic rule code {rule.code}")
    _SEMANTIC_REGISTRY[rule.code] = rule
    return rule_cls


def semantic_rules() -> list[SemanticRule]:
    from repro.lint.concurrency import atomicity, blocking  # noqa: F401
    from repro.lint.contracts import envvar_discipline  # noqa: F401
    return [_SEMANTIC_REGISTRY[code] for code in sorted(_SEMANTIC_REGISTRY)]
