"""The SIM3xx contract rule (SIM304), on fixture projects and the real
tree.

Fixtures are ``{path: source}`` dicts fed to :func:`semantic_pass` with
caching off; paths use the real module locations
(``src/repro/envvars.py`` etc.) because the rule keys on module names.
The final classes run the rule over the *actual* repository sources and
pin the program-scope cache contract.
"""

from __future__ import annotations

import pathlib
from textwrap import dedent

from repro.lint.semantic.engine import SemanticCache, semantic_pass


def run(sources: dict[str, str], select: set[str] | None = None):
    dedented = {path: dedent(source) for path, source in sources.items()}
    return semantic_pass(dedented, select=select)


def rules_of(result) -> list[str]:
    return [violation.rule for violation in result.violations]


class TestEnvVarDiscipline:
    def test_raw_literal_names_the_declared_constant(self):
        result = run({
            "src/repro/envvars.py": 'NO_REPLAY = "REPRO_NO_REPLAY"\n',
            "src/repro/parallel/store.py": """
                import os

                def cache_dir():
                    return os.environ.get("REPRO_NO_REPLAY")
            """}, select={"SIM304"})
        assert rules_of(result) == ["SIM304"]
        assert "repro.envvars.NO_REPLAY" in result.violations[0].message

    def test_undeclared_literal_points_at_the_table(self):
        result = run({
            "src/repro/envvars.py": 'NO_REPLAY = "REPRO_NO_REPLAY"\n',
            "src/repro/parallel/store.py": """
                import os

                def knob():
                    return os.environ.get("REPRO_NEW_KNOB")
            """}, select={"SIM304"})
        assert rules_of(result) == ["SIM304"]
        assert "declared in repro.envvars" in result.violations[0].message

    def test_reading_through_the_constant_is_clean(self):
        result = run({
            "src/repro/envvars.py": 'NO_REPLAY = "REPRO_NO_REPLAY"\n',
            "src/repro/parallel/store.py": """
                import os

                from repro import envvars

                def flag():
                    return os.environ.get(envvars.NO_REPLAY)
            """}, select={"SIM304"})
        assert rules_of(result) == []


def real_tree_sources() -> dict[str, str]:
    """The actual repo modules that read environment variables."""
    root = pathlib.Path(__file__).resolve().parent.parent
    sources = {}
    for sub in ("src/repro/parallel", "src/repro/replay",
                "src/repro/serve"):
        for path in sorted((root / sub).rglob("*.py")):
            sources[str(path.relative_to(root))] = path.read_text()
    sources["src/repro/envvars.py"] = \
        (root / "src/repro/envvars.py").read_text()
    return sources


class TestRealTreeContracts:
    def test_real_tree_is_contract_clean(self):
        result = semantic_pass(real_tree_sources(), select={"SIM304"})
        assert rules_of(result) == []


class TestContractFactsCaching:
    def test_warm_rerun_serves_facts_and_recomputes_program_rules(
            self, tmp_path):
        sources = {path: dedent(src) for path, src in {
            "src/repro/envvars.py": 'NO_REPLAY = "REPRO_NO_REPLAY"\n',
            "src/repro/parallel/store.py": """
                import os

                def flag():
                    return os.environ.get("REPRO_NO_REPLAY")
            """}.items()}
        cache_file = tmp_path / "semantic-cache.json"
        cold = semantic_pass(
            sources, cache=SemanticCache(cache_file, "sig"),
            select={"SIM304"})
        warm = semantic_pass(
            sources, cache=SemanticCache(cache_file, "sig"),
            select={"SIM304"})
        assert cold.facts_computed == len(sources)
        assert warm.facts_from_cache == len(sources)
        assert warm.facts_computed == 0
        # Program-scope contract findings are recomputed each pass from
        # the cached facts — and byte-identical.
        assert [v.message for v in warm.violations] == \
            [v.message for v in cold.violations]
        assert rules_of(warm) == ["SIM304"]
