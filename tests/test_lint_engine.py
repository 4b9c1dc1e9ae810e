"""Engine behaviour: discovery, caching, suppression scopes, reporters,
CLI exit codes."""

from __future__ import annotations

import json
from textwrap import dedent

import pytest

from repro.lint import Violation, all_rules, lint_paths
from repro.lint.cli import main
from repro.lint.engine import discover_files, rules_signature
from repro.lint.reporters import render_json, render_text

BAD_SOURCE = """\
import random

def pick(items):
    return random.choice(items)
"""

CLEAN_SOURCE = """\
import random

RNG = random.Random(7)

def pick(items):
    return RNG.choice(items)
"""


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dedent(source))
    return path


class TestDiscovery:
    def test_skips_caches_and_egg_info(self, tmp_path):
        write(tmp_path, "pkg/mod.py", "x = 1\n")
        write(tmp_path, "pkg/__pycache__/mod.cpython-311.py", "x = 1\n")
        write(tmp_path, "pkg.egg-info/junk.py", "x = 1\n")
        write(tmp_path, ".pytest_cache/junk.py", "x = 1\n")
        files = discover_files([str(tmp_path)])
        assert [f.name for f in files] == ["mod.py"]

    def test_explicit_file(self, tmp_path):
        path = write(tmp_path, "one.py", "x = 1\n")
        assert discover_files([str(path)]) == [path]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_files([str(tmp_path / "no_such_dir")])


class TestCache:
    def test_second_run_hits_cache(self, tmp_path):
        write(tmp_path, "sim.py", BAD_SOURCE)
        cache_file = tmp_path / ".lint-cache.json"
        first = lint_paths([str(tmp_path)], root=tmp_path,
                           cache_file=cache_file)
        second = lint_paths([str(tmp_path)], root=tmp_path,
                            cache_file=cache_file)
        assert first.files_from_cache == 0
        assert second.files_from_cache == 1
        assert [v.as_dict() for v in first.violations] == \
            [v.as_dict() for v in second.violations]

    def test_edit_invalidates_entry(self, tmp_path):
        path = write(tmp_path, "sim.py", BAD_SOURCE)
        cache_file = tmp_path / ".lint-cache.json"
        first = lint_paths([str(tmp_path)], root=tmp_path,
                           cache_file=cache_file)
        assert len(first.violations) == 1
        path.write_text(CLEAN_SOURCE)
        second = lint_paths([str(tmp_path)], root=tmp_path,
                            cache_file=cache_file)
        assert second.files_from_cache == 0
        assert second.violations == []

    def test_cached_project_facts_still_finalized(self, tmp_path):
        # The SIM005 evidence lives in two files; replaying one from
        # cache must not lose its facts.
        write(tmp_path, "stats.py", """
            from dataclasses import dataclass
            @dataclass
            class CacheStats:
                hits_ever: int = 0
                def as_dict(self):
                    return {"hits_ever": self.hits_ever}
        """)
        write(tmp_path, "cache.py", """
            def touch(stats):
                stats.hits_ever += 1
        """)
        cache_file = tmp_path / ".lint-cache.json"
        first = lint_paths([str(tmp_path)], root=tmp_path,
                           cache_file=cache_file)
        second = lint_paths([str(tmp_path)], root=tmp_path,
                            cache_file=cache_file)
        assert first.violations == [] and second.violations == []
        assert second.files_from_cache == 2

    def test_corrupt_cache_ignored(self, tmp_path):
        write(tmp_path, "sim.py", BAD_SOURCE)
        cache_file = tmp_path / ".lint-cache.json"
        cache_file.write_text("{not json")
        result = lint_paths([str(tmp_path)], root=tmp_path,
                            cache_file=cache_file)
        assert len(result.violations) == 1

    def test_signature_is_stable(self):
        assert rules_signature() == rules_signature()


class TestSuppression:
    def test_file_level_suppression(self, tmp_path):
        write(tmp_path, "sim.py", """
            # lint: disable-file=SIM001
            import random
            a = random.random()
            b = random.random()
        """)
        result = lint_paths([str(tmp_path)], root=tmp_path, use_cache=False)
        assert result.violations == []

    def test_line_suppression_is_per_line(self, tmp_path):
        write(tmp_path, "sim.py", """
            import random
            a = random.random()  # lint: disable=SIM001
            b = random.random()
        """)
        result = lint_paths([str(tmp_path)], root=tmp_path, use_cache=False)
        assert len(result.violations) == 1

    def test_disable_all(self, tmp_path):
        write(tmp_path, "sim.py", """
            import random
            a = random.random()  # lint: disable=all
        """)
        result = lint_paths([str(tmp_path)], root=tmp_path, use_cache=False)
        assert result.violations == []


class TestDecoratorSuppression:
    """A decorator list and its ``def`` line are one statement: a
    suppression anywhere on the span must cover findings anchored
    anywhere on it, regardless of comment placement."""

    def test_comment_on_decorator_line_covers_the_def(self, tmp_path):
        write(tmp_path, "sim.py", """
            import functools
            import random

            @functools.lru_cache  # lint: disable=SIM001
            def accumulate(item, seed=random.random()):
                return item
        """)
        result = lint_paths([str(tmp_path)], root=tmp_path, use_cache=False)
        assert result.violations == []

    def test_comment_on_the_def_covers_the_decorator_line(self, tmp_path):
        write(tmp_path, "sim.py", """
            import functools
            import random

            @functools.lru_cache(maxsize=random.randint(4, 8))
            def pick(item):  # lint: disable=SIM001
                return item
        """)
        result = lint_paths([str(tmp_path)], root=tmp_path, use_cache=False)
        assert result.violations == []

    def test_span_spreading_does_not_leak_past_the_def(self, tmp_path):
        write(tmp_path, "sim.py", """
            import functools
            import random

            @functools.lru_cache  # lint: disable=SIM001
            def pick(items):
                return items

            stray = random.random()
        """)
        result = lint_paths([str(tmp_path)], root=tmp_path, use_cache=False)
        assert [v.rule for v in result.violations] == ["SIM001"]


class TestSelection:
    def test_select_runs_only_named_rules(self, tmp_path):
        write(tmp_path, "sim.py", """
            import random
            def pick(items, missing=1 << 30):
                return random.choice(items) if items else missing
        """)
        everything = lint_paths([str(tmp_path)], root=tmp_path,
                                use_cache=False)
        only_sim004 = lint_paths([str(tmp_path)], root=tmp_path,
                                 use_cache=False, select={"SIM004"})
        assert {v.rule for v in everything.violations} == \
            {"SIM001", "SIM004"}
        assert {v.rule for v in only_sim004.violations} == {"SIM004"}

    def test_ignore_drops_named_rules(self, tmp_path):
        write(tmp_path, "sim.py", """
            import random
            x = random.random()
        """)
        result = lint_paths([str(tmp_path)], root=tmp_path,
                            use_cache=False, ignore={"SIM001"})
        assert result.violations == []


class TestParseErrors:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        write(tmp_path, "broken.py", "def oops(:\n")
        result = lint_paths([str(tmp_path)], root=tmp_path, use_cache=False)
        assert [v.rule for v in result.violations] == ["PARSE"]


class TestReporters:
    def _result(self, tmp_path):
        write(tmp_path, "sim.py", BAD_SOURCE)
        return lint_paths([str(tmp_path)], root=tmp_path, use_cache=False)

    def test_text_format(self, tmp_path):
        text = render_text(self._result(tmp_path))
        assert "sim.py:4:11: SIM001" in text
        assert "1 violation (1 files checked)" in text

    def test_json_format(self, tmp_path):
        payload = json.loads(render_json(self._result(tmp_path)))
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["violations"][0]["rule"] == "SIM001"
        assert payload["violations"][0]["path"] == "sim.py"

    def test_violations_sorted_by_location(self, tmp_path):
        write(tmp_path, "b.py", "import random\nx = random.random()\n")
        write(tmp_path, "a.py", "import random\nx = random.random()\n")
        result = lint_paths([str(tmp_path)], root=tmp_path, use_cache=False)
        assert [v.path for v in result.violations] == ["a.py", "b.py"]


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys, monkeypatch):
        write(tmp_path, "sim.py", CLEAN_SOURCE)
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path), "--no-cache"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        write(tmp_path, "sim.py", BAD_SOURCE)
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path), "--no-cache"]) == 1
        assert "SIM001" in capsys.readouterr().out

    def test_no_fail_flag(self, tmp_path, capsys, monkeypatch):
        write(tmp_path, "sim.py", BAD_SOURCE)
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path), "--no-cache",
                     "--no-fail-on-violation"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.code in out

    def test_json_output(self, tmp_path, capsys, monkeypatch):
        write(tmp_path, "sim.py", BAD_SOURCE)
        monkeypatch.chdir(tmp_path)
        main([str(tmp_path), "--no-cache", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False

    def test_typoed_path_is_a_usage_error(self, tmp_path, capsys):
        # A vacuous "0 violations (0 files checked)" pass in CI would
        # be worse than a crash.
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "no_such_dir"), "--no-cache"])
        assert excinfo.value.code == 2

    def test_unknown_rule_code_is_a_usage_error(self, tmp_path, capsys):
        write(tmp_path, "sim.py", BAD_SOURCE)
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--no-cache", "--select", "SIM999"])
        assert excinfo.value.code == 2


class TestViolation:
    def test_format_and_dict_round_trip(self):
        violation = Violation(path="a.py", line=3, col=7,
                              rule="SIM001", message="boom")
        assert violation.format() == "a.py:3:7: SIM001 boom"
        assert Violation(**violation.as_dict()) == violation


def test_registry_has_the_kept_file_rules():
    registered = {rule.code for rule in all_rules()}
    assert registered == {"SIM001", "SIM004", "SIM005", "SIM007", "SIM009"}
