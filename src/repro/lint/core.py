"""Rule framework: violations, the registry, suppressions, AST helpers.

Rules come in two shapes:

- :class:`FileRule` — looks at one file's AST and yields violations.
- :class:`ProjectRule` — first *collects* JSON-serializable facts per
  file (cached alongside the file's other lint results), then a
  *finalize* step runs over the facts of every file in the pass.  The
  stats-conservation rule needs this: a counter is incremented in one
  module and surfaced in another.

Suppression comments::

    something_noisy()          # lint: disable=SIM001
    other_thing()              # lint: disable=SIM001,SIM007
    # lint: disable-file=SIM009   (anywhere in the file, whole file)
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class Violation:
    """One finding, anchored to a source location."""

    path: str          # repo-relative, posix separators
    line: int
    col: int
    rule: str          # e.g. "SIM001"
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


def parse_suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """(line -> codes) suppressions and file-wide suppressed codes."""
    per_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        codes = {code.strip().upper()
                 for code in match.group("codes").split(",")}
        if match.group("scope"):
            whole_file |= codes
        else:
            per_line.setdefault(lineno, set()).update(codes)
    return per_line, whole_file


def _spread_decorator_suppressions(tree: ast.Module,
                                   per_line: dict[int, set[str]]) -> None:
    """Suppressions anywhere on a decorated statement cover all of it.

    A decorator list and its ``def``/``class`` line are one statement;
    a ``# lint: disable=...`` on a decorator line must also silence
    findings reported at the definition line (and vice versa), or the
    comment placement silently decides whether the suppression works.
    """
    for node in ast.walk(tree):
        decorators = getattr(node, "decorator_list", None)
        if not decorators:
            continue
        span_start = min(decorator.lineno for decorator in decorators)
        span_end = node.lineno  # findings on the def anchor here
        codes: set[str] = set()
        for line in range(span_start, span_end + 1):
            codes |= per_line.get(line, set())
        if not codes:
            continue
        for line in range(span_start, span_end + 1):
            per_line.setdefault(line, set()).update(codes)


@dataclass
class FileContext:
    """One parsed file plus its suppression tables."""

    path: str                        # repo-relative posix path
    source: str
    tree: ast.Module
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        per_line, whole_file = parse_suppressions(source)
        _spread_decorator_suppressions(tree, per_line)
        return cls(path=path, source=source, tree=tree,
                   line_suppressions=per_line, file_suppressions=whole_file)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions or "ALL" in self.file_suppressions:
            return True
        codes = self.line_suppressions.get(line, ())
        return rule in codes or "ALL" in codes

    # Convenience used by several rules ---------------------------------
    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)


class Rule:
    """Base: every rule has a code, a name and a one-line description."""

    code: str = ""
    name: str = ""
    description: str = ""

    def violation(self, ctx: FileContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(path=ctx.path,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0),
                         rule=self.code, message=message)


class FileRule(Rule):
    """A rule that judges one file at a time."""

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that needs the whole file set.

    ``collect`` must return something JSON-serializable — it is cached
    per file and replayed on later runs when the file is unchanged.
    ``finalize`` receives ``{path: facts}`` for every scanned file.
    """

    def collect(self, ctx: FileContext) -> object:
        raise NotImplementedError

    def finalize(self, facts: dict[str, object]) -> Iterable[Violation]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if not rule.code:
        raise ValueError(f"{rule_cls.__name__} has no code")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    # Importing the rules package populates the registry exactly once.
    import repro.lint.rules  # noqa: F401  (registration side effect)
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    import repro.lint.rules  # noqa: F401
    return _REGISTRY[code.upper()]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """'a.b.c' for nested Attribute/Name chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local alias -> canonical dotted module/name.

    ``import numpy as np`` -> {"np": "numpy"};
    ``from numpy import random as nr`` -> {"nr": "numpy.random"}.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                aliases[item.asname or item.name] = \
                    f"{node.module}.{item.name}"
    return aliases


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a call target, un-aliased via imports."""
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    canonical = aliases.get(head, head)
    return f"{canonical}.{rest}" if rest else canonical


class ConstFolder:
    """Fold simple integer expressions (literals, +-*//<<**, names)."""

    def __init__(self, env: dict[str, int] | None = None) -> None:
        self.env = dict(env or {})

    def fold(self, node: ast.AST) -> int | None:
        if isinstance(node, ast.Constant):
            return node.value if isinstance(node.value, int) \
                and not isinstance(node.value, bool) else None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self.fold(node.operand)
            return None if inner is None else -inner
        if isinstance(node, ast.BinOp):
            left = self.fold(node.left)
            right = self.fold(node.right)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                return left // right if right else None
            if isinstance(node.op, ast.LShift):
                return left << right if 0 <= right < 128 else None
            if isinstance(node.op, ast.Pow):
                return left ** right if 0 <= right < 64 else None
        return None
