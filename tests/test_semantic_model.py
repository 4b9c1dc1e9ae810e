"""Project model: fact extraction, call resolution, dependency digests.

Fixtures are tiny multi-module "projects" fed to :class:`Program` as
``{path: facts}``, exactly how the semantic engine builds it.
"""

from __future__ import annotations

from textwrap import dedent

from repro.lint.core import FileContext
from repro.lint.semantic.model import (Program, dependency_signatures,
                                       extract_module_facts,
                                       module_name_for, project_imports)


def program_of(sources: dict[str, str]) -> Program:
    facts = {path: extract_module_facts(
        FileContext.parse(path, dedent(source)))
        for path, source in sources.items()}
    return Program(facts)


class TestModuleNames:
    def test_src_prefix_and_init_are_stripped(self):
        assert module_name_for("src/repro/tcor/system.py") \
            == "repro.tcor.system"
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"
        assert module_name_for("benchmarks/bench_sim.py") \
            == "benchmarks.bench_sim"


class TestCallResolution:
    def test_module_level_and_self_method_calls(self):
        program = program_of({"src/pkg/a.py": """
            class Worker:
                def helper(self):
                    return 1

                def run(self):
                    return self.helper()

            def top():
                return Worker()
        """})
        assert program.resolve_call("pkg.a", "Worker.run", "self.helper") \
            == "pkg.a:Worker.helper"
        # A bare class call resolves to its __init__ or the class itself.
        assert program.resolve_call("pkg.a", "top", "Worker") \
            == "pkg.a:Worker"

    def test_cross_module_import_alias(self):
        program = program_of({
            "src/pkg/a.py": """
                def compute():
                    return 1
            """,
            "src/pkg/b.py": """
                from pkg.a import compute as calc

                def run():
                    return calc()
            """,
        })
        assert program.resolve_call("pkg.b", "run", "calc") \
            == "pkg.a:compute"

    def test_module_level_alias_chain(self):
        program = program_of({"src/pkg/a.py": """
            def main():
                return 1

            runner = main

            def go():
                return runner()
        """})
        assert program.resolve_call("pkg.a", "go", "runner") == "pkg.a:main"

    def test_decorated_callable_still_resolves(self):
        program = program_of({"src/pkg/a.py": """
            import functools

            @functools.lru_cache(maxsize=None)
            def cached():
                return 1

            def run():
                return cached()
        """})
        assert program.resolve_call("pkg.a", "run", "cached") \
            == "pkg.a:cached"

    def test_inherited_method_resolves_through_the_base(self):
        program = program_of({
            "src/pkg/base.py": """
                class Base:
                    def shared(self):
                        return 0
            """,
            "src/pkg/child.py": """
                from pkg.base import Base

                class Child(Base):
                    def run(self):
                        return self.shared()
            """,
        })
        assert program.resolve_call("pkg.child", "Child.run",
                                    "self.shared") == "pkg.base:Base.shared"

    def test_attribute_chain_types_through_attr_types(self):
        program = program_of({
            "src/pkg/stats.py": """
                class CacheStats:
                    def record(self):
                        return 1
            """,
            "src/pkg/cache.py": """
                from pkg.stats import CacheStats

                class Cache:
                    def __init__(self):
                        self.stats = CacheStats()

                class Owner:
                    def __init__(self, cache: Cache):
                        self.cache = cache

                    def touch(self):
                        return self.cache.stats.record()
            """,
        })
        assert program.resolve_call("pkg.cache", "Owner.touch",
                                    "self.cache.stats.record") \
            == "pkg.stats:CacheStats.record"

    def test_annotated_parameter_receiver_resolves(self):
        program = program_of({"src/pkg/a.py": """
            class Engine:
                def step(self):
                    return 1

            def drive(engine: Engine):
                return engine.step()
        """})
        assert program.resolve_call("pkg.a", "drive", "engine.step") \
            == "pkg.a:Engine.step"

    def test_local_bound_to_param_attribute_is_rewritten(self):
        program = program_of({"src/pkg/a.py": """
            class Stats:
                def bump(self):
                    return 1

            class Shared:
                def __init__(self):
                    self.stats = Stats()

            def run(shared: Shared):
                stats = shared.stats
                return stats.bump()
        """})
        calls = {c["name"] for c
                 in program.modules["pkg.a"]["functions"]["run"]["calls"]}
        assert "shared.stats.bump" in calls
        assert program.resolve_call("pkg.a", "run", "shared.stats.bump") \
            == "pkg.a:Stats.bump"


class TestDependencySignatures:
    def _sigs(self, shas_b):
        shas = {"pkg.a": "sha_a", "pkg.b": shas_b, "pkg.c": "sha_c"}
        deps = {"pkg.a": {"pkg.b"}, "pkg.b": {"pkg.c"}, "pkg.c": set()}
        return dependency_signatures(shas, deps)

    def test_editing_a_transitive_dep_changes_the_signature(self):
        before = self._sigs("sha_b")
        after = self._sigs("sha_b_edited")
        assert before["pkg.a"] != after["pkg.a"]      # depends on b
        assert before["pkg.b"] != after["pkg.b"]      # is b
        assert before["pkg.c"] == after["pkg.c"]      # upstream of b

    def test_signature_is_order_independent_and_cycle_safe(self):
        shas = {"x": "1", "y": "2"}
        cyclic = {"x": {"y"}, "y": {"x"}}
        forward = dependency_signatures(shas, cyclic)
        backward = dependency_signatures(
            dict(reversed(list(shas.items()))), cyclic)
        assert forward == backward

    def test_project_imports_keep_only_scanned_modules(self):
        facts = extract_module_facts(FileContext.parse(
            "src/pkg/b.py", dedent("""
                import json
                from pkg.a import compute
                from . import sibling
            """)))
        known = {"pkg.a", "pkg.b", "pkg"}
        deps = project_imports(facts, known)
        assert "pkg.a" in deps
        assert all(not dep.startswith("json") for dep in deps)
