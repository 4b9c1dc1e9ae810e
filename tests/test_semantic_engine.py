"""Semantic engine: two-tier caching, SARIF output, CLI.

The cache assertions use the hit/miss counters carried on
:class:`LintResult` — the same numbers the acceptance criterion "a warm
second run reuses cached facts for unchanged modules" is stated in.
"""

from __future__ import annotations

import json
from textwrap import dedent

import pytest

from repro.lint import lint_paths
from repro.lint.cli import main
from repro.lint.reporters import sarif_payload
from repro.lint.semantic.rules import semantic_rules

CLEAN_APP = """
    from proj.util import double

    def run(value):
        return double(value)
"""
CLEAN_UTIL = """
    def double(value):
        return value * 2
"""
DIRTY_ASYNC = """
    import time

    async def handler(payload):
        time.sleep(0.1)
        return payload
"""


def write_project(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(source))
    return tmp_path


@pytest.fixture
def clean_project(tmp_path):
    return write_project(tmp_path, {
        "src/proj/__init__.py": "",
        "src/proj/app.py": CLEAN_APP,
        "src/proj/util.py": CLEAN_UTIL,
    })


class TestSemanticCache:
    def test_warm_run_reuses_facts_and_findings(self, clean_project):
        root = clean_project
        cold = lint_paths([str(root / "src")], root=root, semantic=True)
        warm = lint_paths([str(root / "src")], root=root, semantic=True)
        assert cold.semantic_facts_computed == 3
        assert cold.semantic_facts_from_cache == 0
        assert warm.semantic_facts_from_cache == 3
        assert warm.semantic_facts_computed == 0
        assert warm.semantic_findings_from_cache == 3
        assert warm.semantic_findings_computed == 0

    def test_editing_a_module_invalidates_only_its_dependents(
            self, clean_project):
        root = clean_project
        lint_paths([str(root / "src")], root=root, semantic=True)
        util = root / "src/proj/util.py"
        util.write_text(util.read_text() + "\nEXTRA = 1\n")
        warm = lint_paths([str(root / "src")], root=root, semantic=True)
        # Facts: only the edited file re-extracts.
        assert warm.semantic_facts_from_cache == 2
        assert warm.semantic_facts_computed == 1
        # Findings: util itself and its importer app recompute;
        # __init__ (no dependency on util) replays.
        assert warm.semantic_findings_computed == 2
        assert warm.semantic_findings_from_cache == 1

    def test_semantic_cache_is_a_separate_file(self, clean_project):
        root = clean_project
        lint_paths([str(root / "src")], root=root, semantic=True)
        assert (root / ".lint-semantic-cache.json").is_file()
        payload = json.loads(
            (root / ".lint-semantic-cache.json").read_text())
        assert set(payload) >= {"version", "signature", "facts",
                                "findings"}

    def test_cached_findings_replay_identically(self, tmp_path):
        root = write_project(tmp_path, {"src/srv.py": DIRTY_ASYNC})
        cold = lint_paths([str(root / "src")], root=root, semantic=True)
        warm = lint_paths([str(root / "src")], root=root, semantic=True)
        assert warm.semantic_findings_from_cache == 1
        assert [v.format() for v in warm.violations] \
            == [v.format() for v in cold.violations]
        assert any(v.rule == "SIM201" for v in warm.violations)


class TestSarif:
    def test_payload_has_the_schema_required_fields(self, tmp_path):
        root = write_project(tmp_path, {"src/srv.py": DIRTY_ASYNC})
        result = lint_paths([str(root / "src")], root=root,
                            use_cache=False, semantic=True)
        payload = sarif_payload(result)
        # sarifLog required: version + runs; $schema pins 2.1.0.
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]  # run requires tool.driver.name
        assert driver["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert {"SIM001", "SIM201", "SIM202"} <= rule_ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
        assert run["results"], "the dirty fixture must produce results"
        for entry in run["results"]:
            # result requires message; ruleId/locations make GitHub
            # code scanning render it usefully.
            assert entry["message"]["text"]
            assert entry["ruleId"] in rule_ids
            location = entry["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith(".py")
            assert location["region"]["startLine"] >= 1
            assert location["region"]["startColumn"] >= 1

    def test_cli_emits_parseable_sarif(self, tmp_path, capsys):
        root = write_project(tmp_path, {"src/ok.py": CLEAN_UTIL})
        status = main(["--format", "sarif", "--no-cache",
                       str(root / "src")])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["runs"][0]["results"] == []


class TestCli:
    def test_semantic_codes_are_known_to_select_and_ignore(
            self, tmp_path, capsys):
        root = write_project(tmp_path, {"src/srv.py": DIRTY_ASYNC})
        status = main(["--no-cache", "--semantic", "--select", "SIM201",
                       str(root / "src")])
        out = capsys.readouterr().out
        assert status == 1
        assert "SIM201" in out

        status = main(["--no-cache", "--semantic", "--ignore", "SIM201",
                       str(root / "src")])
        capsys.readouterr()
        assert status == 0

    def test_unknown_code_is_still_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "SIM999", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_list_rules_includes_the_semantic_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in semantic_rules():
            assert rule.code in out


class TestSemanticRegistry:
    def test_all_families_with_stable_codes(self):
        codes = [rule.code for rule in semantic_rules()]
        assert codes == ["SIM201", "SIM202", "SIM304"]

    def test_scopes_partition_cacheable_from_global(self):
        scopes = {rule.code: rule.scope for rule in semantic_rules()}
        assert scopes["SIM201"] == "module"
        assert scopes["SIM202"] == "module"
        assert scopes["SIM304"] == "program"
