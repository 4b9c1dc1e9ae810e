"""Violation reporters: human text, machine JSON, and SARIF 2.1.0."""

from __future__ import annotations

import json

from repro.lint.core import all_rules
from repro.lint.engine import LintResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def render_text(result: LintResult) -> str:
    lines = [violation.format() for violation in result.violations]
    cached = (f", {result.files_from_cache} from cache"
              if result.files_from_cache else "")
    noun = "violation" if len(result.violations) == 1 else "violations"
    lines.append(f"{len(result.violations)} {noun} "
                 f"({result.files_checked} files checked{cached})")
    if result.semantic_enabled:
        lines.append(
            f"semantic: {result.semantic_modules} modules, facts "
            f"{result.semantic_facts_from_cache} cached / "
            f"{result.semantic_facts_computed} computed, findings "
            f"{result.semantic_findings_from_cache} cached / "
            f"{result.semantic_findings_computed} computed")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "violations": [violation.as_dict()
                       for violation in result.violations],
        "files_checked": result.files_checked,
        "files_from_cache": result.files_from_cache,
        "ok": result.ok,
    }
    if result.semantic_enabled:
        payload["semantic"] = {
            "modules": result.semantic_modules,
            "facts_from_cache": result.semantic_facts_from_cache,
            "facts_computed": result.semantic_facts_computed,
            "findings_from_cache": result.semantic_findings_from_cache,
            "findings_computed": result.semantic_findings_computed,
        }
    return json.dumps(payload, indent=2)


def _catalogue():
    """Every known rule (file, project and semantic), sorted by code."""
    from repro.lint.semantic.rules import semantic_rules
    return sorted(all_rules() + list(semantic_rules()),
                  key=lambda rule: rule.code)


def sarif_payload(result: LintResult) -> dict:
    """SARIF 2.1.0 log for GitHub code scanning upload."""
    rules = [{
        "id": rule.code,
        "name": rule.name,
        "shortDescription": {"text": rule.description},
        "defaultConfiguration": {"level": "error"},
    } for rule in _catalogue()]
    known_ids = {rule["id"] for rule in rules}
    results = []
    for violation in result.violations:
        entry = {
            "ruleId": violation.rule,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": violation.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(violation.line, 1),
                        # SARIF columns are 1-based; ours are 0-based.
                        "startColumn": violation.col + 1,
                    },
                },
            }],
        }
        if violation.rule in known_ids:
            entry["ruleIndex"] = sorted(known_ids).index(violation.rule)
        results.append(entry)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "informationUri":
                    "https://example.invalid/tcor-repro/lint",
                "rules": rules,
            }},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }


def render_sarif(result: LintResult) -> str:
    return json.dumps(sarif_payload(result), indent=2)


_FAMILIES = {
    "SIM0": "file/project rule (always on)",
    "SIM2": "async-concurrency rule (--semantic)",
    "SIM3": "contract-analysis rule (--semantic)",
}


def render_explain(code: str) -> str | None:
    """Full documentation for one rule, or ``None`` if unknown.

    The rule's class docstring (falling back to its defining module's
    docstring) is the authoritative long-form description — the same
    text DESIGN.md quotes from.
    """
    import inspect
    import sys

    for rule in _catalogue():
        if rule.code != code:
            continue
        doc = type(rule).__doc__  # not getdoc(): no MRO inheritance
        doc = inspect.cleandoc(doc) if doc else \
            inspect.getdoc(sys.modules[type(rule).__module__])
        family = _FAMILIES.get(code[:4], "rule")
        scope = getattr(rule, "scope", None)
        header = f"{rule.code} ({rule.name}) — {family}"
        if scope:
            header += f", scope={scope}"
        return "\n".join([header, f"  {rule.description}", "",
                          doc or "(no documentation)"])
    return None


def render_rule_list() -> str:
    lines = []
    for rule in _catalogue():
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"        {rule.description}")
    return "\n".join(lines)


REPORTERS = {"text": render_text, "json": render_json,
             "sarif": render_sarif}
