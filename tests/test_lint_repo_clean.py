"""Meta-test: the shipped tree passes its own static analysis.

This is the machine-checked guardrail the lint subsystem exists for —
any PR that reintroduces a global RNG, an orphaned stats counter, a
duplicated sentinel or a swallowed exception fails here (and in the
CI lint step) before a reviewer ever sees it.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTED_TREES = ("src", "benchmarks", "examples")


def test_shipped_tree_is_lint_clean():
    result = lint_paths(
        [str(REPO_ROOT / tree) for tree in LINTED_TREES],
        root=REPO_ROOT, use_cache=False,
    )
    assert result.files_checked > 100  # the pass really saw the tree
    messages = [violation.format() for violation in result.violations]
    assert messages == []


def test_shipped_tree_is_semantically_clean():
    """The whole ``--semantic`` pass (the file rules plus every
    whole-program family, call graph and CFG dataflow included)
    blesses the tree."""
    result = lint_paths(
        [str(REPO_ROOT / tree) for tree in LINTED_TREES],
        root=REPO_ROOT, use_cache=False, semantic=True,
    )
    assert result.semantic_enabled
    assert result.semantic_modules > 100  # the whole program was modelled
    assert [violation.format() for violation in result.violations] == []


def test_shipped_tree_is_concurrency_clean():
    """The SIM2xx pass blesses the tree as well: no blocking calls on
    the event loop and no atomicity gaps across awaits — the serve
    layer's findings were fixed (executor dispatch, batched
    probe/write-through) or justified with a suppression."""
    result = lint_paths(
        [str(REPO_ROOT / tree) for tree in LINTED_TREES],
        root=REPO_ROOT, use_cache=False, semantic=True,
    )
    concurrency = [violation.format() for violation in result.violations
                   if violation.rule.startswith("SIM2")]
    assert concurrency == []


def test_shipped_tree_is_contract_clean():
    """The SIM3xx contract pass blesses the tree: every REPRO_* knob
    reads through repro.envvars."""
    result = lint_paths(
        [str(REPO_ROOT / tree) for tree in LINTED_TREES],
        root=REPO_ROOT, use_cache=False, semantic=True,
    )
    contracts = [violation.format() for violation in result.violations
                 if violation.rule.startswith("SIM3")]
    assert contracts == []


def test_seeded_async_violation_is_caught_next_to_the_tree(tmp_path):
    """The same pass that blesses the tree still fails when a
    concurrency violation is introduced beside it."""
    bad = tmp_path / "regression.py"
    bad.write_text(
        "import time\n\n\n"
        "async def handler(payload):\n"
        "    time.sleep(0.1)\n"
        "    return payload\n")
    result = lint_paths(
        [str(REPO_ROOT / "src"), str(tmp_path)],
        root=REPO_ROOT, use_cache=False, semantic=True,
    )
    seeded = [violation.rule for violation in result.violations
              if violation.path.endswith("regression.py")]
    assert seeded == ["SIM201"]


def test_seeded_violation_is_caught(tmp_path):
    """End-to-end guarantee: the same pass that blesses the tree still
    fails when a violation is introduced next to it."""
    bad = tmp_path / "regression.py"
    bad.write_text("import random\nVICTIM = random.randint(0, 3)\n")
    result = lint_paths(
        [str(REPO_ROOT / "src"), str(tmp_path)],
        root=REPO_ROOT, use_cache=False,
    )
    assert [violation.rule for violation in result.violations] == ["SIM001"]
