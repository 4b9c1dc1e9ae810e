"""Semantic pass driver: fact extraction, caching, rule dispatch.

Two cache tiers live in one JSON file (``.lint-semantic-cache.json``,
git-ignored, invalidated wholesale when the lint package's own sources
change — same signature discipline as the file-rule cache):

- ``facts``    — per file, keyed by content sha.  Extraction is purely
  intraprocedural, so a file's facts survive any edit elsewhere.
- ``findings`` — per file, keyed by the module's *dependency
  signature* (digest over its transitive project imports).  Editing a
  module invalidates findings only for the module itself and its
  dependents — everything upstream replays.

Program-scope rules (cross-module table checks) are recomputed every
pass from facts; they are cheap once extraction is cached.  Hit/miss counters for both tiers ride on
:class:`SemanticResult` and are asserted by the warm-cache tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.core import FileContext, Violation
from repro.lint.semantic.model import (Program, dependency_signatures,
                                       extract_module_facts,
                                       project_imports)
from repro.lint.semantic.rules import semantic_rules

SEMANTIC_CACHE_VERSION = 3
DEFAULT_SEMANTIC_CACHE = ".lint-semantic-cache.json"


@dataclass
class SemanticResult:
    violations: list[Violation] = field(default_factory=list)
    modules_analyzed: int = 0
    facts_from_cache: int = 0
    facts_computed: int = 0
    findings_from_cache: int = 0
    findings_computed: int = 0


class SemanticCache:
    """sha-keyed facts and depsig-keyed findings, best-effort on disk."""

    def __init__(self, cache_file: Path | None, signature: str) -> None:
        self.cache_file = cache_file
        self.signature = signature
        self.facts: dict[str, dict] = {}
        self.findings: dict[str, dict] = {}
        self.dirty = False
        if cache_file is not None and cache_file.is_file():
            try:
                payload = json.loads(cache_file.read_text())
            except (OSError, ValueError):
                payload = {}
            if payload.get("version") == SEMANTIC_CACHE_VERSION \
                    and payload.get("signature") == signature:
                self.facts = payload.get("facts", {})
                self.findings = payload.get("findings", {})

    def get_facts(self, rel: str, sha: str) -> dict | None:
        entry = self.facts.get(rel)
        if entry is not None and entry.get("sha") == sha:
            return entry["facts"]
        return None

    def put_facts(self, rel: str, sha: str, facts: dict) -> None:
        self.facts[rel] = {"sha": sha, "facts": facts}
        self.dirty = True

    def get_findings(self, rel: str, depsig: str) -> list | None:
        entry = self.findings.get(rel)
        if entry is not None and entry.get("depsig") == depsig:
            return entry["violations"]
        return None

    def put_findings(self, rel: str, depsig: str,
                     violations: list) -> None:
        self.findings[rel] = {"depsig": depsig, "violations": violations}
        self.dirty = True

    def save(self) -> None:
        if self.cache_file is None or not self.dirty:
            return
        payload = {"version": SEMANTIC_CACHE_VERSION,
                   "signature": self.signature,
                   "facts": self.facts, "findings": self.findings}
        try:
            self.cache_file.write_text(json.dumps(payload))
        except OSError:
            pass  # caching is best-effort; the pass result is unaffected


def _sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8", "replace")).hexdigest()


def semantic_pass(sources: dict[str, str], *,
                  cache: SemanticCache | None = None,
                  select: set[str] | None = None,
                  ignore: set[str] | None = None) -> SemanticResult:
    """Run the semantic families (SIM2xx + SIM3xx) over
    ``{rel_path: source}``.

    Files that fail to parse are skipped here — the file pass already
    reported them as PARSE violations.
    """
    result = SemanticResult()
    facts_by_path: dict[str, dict] = {}
    shas: dict[str, str] = {}
    for rel in sorted(sources):
        source = sources[rel]
        sha = _sha(source)
        cached = cache.get_facts(rel, sha) if cache is not None else None
        if cached is not None:
            result.facts_from_cache += 1
            facts_by_path[rel] = cached
            shas[rel] = sha
            continue
        try:
            ctx = FileContext.parse(rel, source)
        except SyntaxError:
            continue
        facts = extract_module_facts(ctx)
        result.facts_computed += 1
        facts_by_path[rel] = facts
        shas[rel] = sha
        if cache is not None:
            cache.put_facts(rel, sha, facts)

    program = Program(facts_by_path)
    result.modules_analyzed = len(facts_by_path)

    module_shas = {facts["module"]: shas[rel]
                   for rel, facts in facts_by_path.items()}
    known = set(module_shas)
    deps = {facts["module"]: project_imports(facts, known)
            for facts in facts_by_path.values()}
    depsigs = dependency_signatures(module_shas, deps)

    rules = semantic_rules()
    if select:
        rules = [rule for rule in rules if rule.code in select]
    if ignore:
        rules = [rule for rule in rules if rule.code not in ignore]
    module_rules = [rule for rule in rules if rule.scope == "module"]
    program_rules = [rule for rule in rules if rule.scope == "program"]
    # A filtered run must not poison the findings cache.
    findings_cache = cache if cache is not None and not select \
        and not ignore else None

    for rel, facts in sorted(facts_by_path.items()):
        depsig = depsigs[facts["module"]]
        cached_findings = findings_cache.get_findings(rel, depsig) \
            if findings_cache is not None else None
        if cached_findings is not None:
            result.findings_from_cache += 1
            result.violations.extend(
                Violation(path=path, line=line, col=col, rule=rule,
                          message=message)
                for rule, path, line, col, message in cached_findings)
            continue
        module_violations: list[Violation] = []
        for rule in module_rules:
            module_violations.extend(
                rule.check_module(program, facts["module"]))
        result.findings_computed += 1
        result.violations.extend(module_violations)
        if findings_cache is not None:
            findings_cache.put_findings(rel, depsig, [
                [v.rule, v.path, v.line, v.col, v.message]
                for v in module_violations])

    for rule in program_rules:
        result.violations.extend(rule.check_program(program))

    if cache is not None:
        cache.save()
    result.violations.sort()
    return result
