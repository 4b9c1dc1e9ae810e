"""Mixed-family CLI runs: SIM0xx + SIM2xx + SIM3xx in one invocation.

One ``repro-lint --semantic`` run covers all three rule families;
these tests pin what that means operationally — one exit code, one
SARIF document, and byte-identical output across a warm fact-cache
rerun (the CI contract).
"""

from __future__ import annotations

import json
from textwrap import dedent

from repro.lint import lint_paths
from repro.lint.cli import main
from repro.lint.reporters import sarif_payload

# One violation per family, in three separate modules.
RNG_MODULE = """
    import random

    PICK = random.randint(0, 3)
"""
ENV_MODULE = """
    import os

    def cache_dir():
        return os.environ.get("REPRO_CACHE_DIR")
"""
ASYNC_MODULE = """
    import time

    async def handler(payload):
        time.sleep(0.1)
        return payload
"""
CLEAN_MODULE = """
    def double(value):
        return value * 2
"""


def write_project(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(source))
    return tmp_path


def mixed_project(tmp_path):
    return write_project(tmp_path, {
        "src/rng.py": RNG_MODULE,
        "src/env.py": ENV_MODULE,
        "src/srv.py": ASYNC_MODULE,
    })


class TestExitCodes:
    def test_mixed_findings_exit_one_and_name_every_family(
            self, tmp_path, capsys):
        root = mixed_project(tmp_path)
        status = main(["--no-cache", "--semantic", str(root / "src")])
        out = capsys.readouterr().out
        assert status == 1
        for code in ("SIM001", "SIM304", "SIM201"):
            assert code in out

    def test_clean_tree_exits_zero_with_all_families_on(
            self, tmp_path, capsys):
        root = write_project(tmp_path, {"src/ok.py": CLEAN_MODULE})
        status = main(["--no-cache", "--semantic", str(root / "src")])
        capsys.readouterr()
        assert status == 0

    def test_selecting_one_family_scopes_the_exit_decision(
            self, tmp_path, capsys):
        root = mixed_project(tmp_path)
        status = main(["--no-cache", "--semantic", "--select", "SIM201",
                       str(root / "src")])
        out = capsys.readouterr().out
        assert status == 1
        assert "SIM201" in out
        assert "SIM001" not in out and "SIM304" not in out

    def test_concurrency_codes_are_ignorable(self, tmp_path, capsys):
        root = write_project(tmp_path, {"src/srv.py": ASYNC_MODULE})
        status = main(["--no-cache", "--semantic", "--ignore", "SIM201",
                       str(root / "src")])
        capsys.readouterr()
        assert status == 0


class TestExplain:
    def test_explain_prints_the_full_rule_documentation(self, capsys):
        # One rule per family; lower-case codes are normalised.
        for code, fragment in (("sim001", "RNG"),
                               ("SIM201", "event loop"),
                               ("SIM202", "suspension"),
                               ("SIM304", "repro.envvars")):
            status = main(["--explain", code])
            out = capsys.readouterr().out
            assert status == 0
            assert out.startswith(code.upper() + " (")
            assert fragment.lower() in out.lower()

    def test_explain_rejects_unknown_codes(self, capsys):
        import pytest
        with pytest.raises(SystemExit) as excinfo:
            main(["--explain", "SIM999"])
        assert excinfo.value.code == 2
        assert "unknown rule code" in capsys.readouterr().err


class TestSingleSarif:
    def test_one_document_carries_all_three_families(
            self, tmp_path, capsys):
        root = mixed_project(tmp_path)
        status = main(["--no-cache", "--semantic", "--format", "sarif",
                       str(root / "src")])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        (run,) = payload["runs"]  # one run for the whole mixed pass
        hit_rules = {entry["ruleId"] for entry in run["results"]}
        assert {"SIM001", "SIM304", "SIM201"} <= hit_rules
        # The driver catalogue is namespaced per family and has no
        # duplicate ids.
        ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert len(ids) == len(set(ids))
        assert {"SIM001", "SIM201", "SIM202", "SIM304"} <= set(ids)

    def test_results_point_into_the_right_files(self, tmp_path):
        root = mixed_project(tmp_path)
        result = lint_paths([str(root / "src")], root=root,
                            use_cache=False, semantic=True)
        payload = sarif_payload(result)
        uri_of = {entry["ruleId"]:
                  entry["locations"][0]["physicalLocation"]
                  ["artifactLocation"]["uri"]
                  for entry in payload["runs"][0]["results"]}
        assert uri_of["SIM001"].endswith("rng.py")
        assert uri_of["SIM304"].endswith("env.py")
        assert uri_of["SIM201"].endswith("srv.py")


class TestWarmRerunStability:
    def test_sarif_is_byte_stable_across_a_warm_fact_cache_rerun(
            self, tmp_path):
        root = mixed_project(tmp_path)
        cold = lint_paths([str(root / "src")], root=root, semantic=True)
        warm = lint_paths([str(root / "src")], root=root, semantic=True)
        # The warm run really replayed the two-tier cache...
        assert warm.semantic_facts_from_cache == 3
        assert warm.semantic_facts_computed == 0
        assert warm.semantic_findings_from_cache == 3
        # ...and the reports are byte-identical, SARIF included.
        assert [v.format() for v in warm.violations] \
            == [v.format() for v in cold.violations]
        assert json.dumps(sarif_payload(warm), sort_keys=True) \
            == json.dumps(sarif_payload(cold), sort_keys=True)
