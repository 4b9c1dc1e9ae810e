"""Per-rule tests: each rule fires on a seeded violation, stays silent
on a clean equivalent, and honours suppression comments."""

from __future__ import annotations

from textwrap import dedent

from repro.lint import lint_paths


def run_lint(tmp_path, files, **kwargs):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(source))
    kwargs.setdefault("use_cache", False)
    return lint_paths([str(tmp_path)], root=tmp_path, **kwargs)


def codes(result):
    return [violation.rule for violation in result.violations]


class TestSIM001GlobalRandom:
    def test_module_global_random_fires(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            import random
            def pick(items):
                return random.choice(items)
        """})
        assert codes(result) == ["SIM001"]

    def test_numpy_global_fires(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            import numpy as np
            def noise():
                return np.random.rand(4)
        """})
        assert codes(result) == ["SIM001"]

    def test_unseeded_generator_fires(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            import numpy as np
            rng = np.random.default_rng()
        """})
        assert codes(result) == ["SIM001"]

    def test_seeded_instance_clean(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            import random
            import numpy as np
            rng = random.Random(7)
            npr = np.random.default_rng(7)
            def pick(items):
                return rng.choice(items)
        """})
        assert codes(result) == []

    def test_workloads_seam_exempt(self, tmp_path):
        result = run_lint(tmp_path, {"workloads/traffic.py": """
            import random
            def jitter():
                return random.random()
        """})
        assert codes(result) == []

    def test_reseeding_global_fires_even_in_seam(self, tmp_path):
        result = run_lint(tmp_path, {"workloads/traffic.py": """
            import random
            random.seed(0)
        """})
        assert codes(result) == ["SIM001"]

    def test_suppressed(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            import random
            x = random.random()  # lint: disable=SIM001
        """})
        assert codes(result) == []


class TestSIM004MagicSentinel:
    def test_shift_literal_fires(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            NEVER = 1 << 30
        """})
        assert codes(result) == ["SIM004"]

    def test_decimal_literal_fires(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            def effective(rank):
                return 1073741824 if rank is None else rank
        """})
        assert codes(result) == ["SIM004"]

    def test_hex_address_constant_clean(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            TEXTURE_BASE = 0x4000_0000
        """})
        assert codes(result) == []

    def test_import_from_constants_clean(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            from repro.constants import NO_NEXT_USE_RANK
            def effective(rank):
                return NO_NEXT_USE_RANK if rank is None else rank
        """})
        assert codes(result) == []

    def test_home_module_exempt(self, tmp_path):
        result = run_lint(tmp_path, {"repro/constants.py": """
            NO_NEXT_USE_RANK = 1 << 30
        """})
        assert codes(result) == []


class TestSIM005StatsConservation:
    def test_never_incremented_fires(self, tmp_path):
        result = run_lint(tmp_path, {"stats.py": """
            from dataclasses import dataclass
            @dataclass
            class CacheStats:
                hits_ever: int = 0
                def as_dict(self):
                    return {"hits_ever": self.hits_ever}
        """})
        assert codes(result) == ["SIM005"]
        assert "never incremented" in result.violations[0].message

    def test_never_surfaced_fires(self, tmp_path):
        result = run_lint(tmp_path, {"stats.py": """
            from dataclasses import dataclass
            @dataclass
            class CacheStats:
                hits_ever: int = 0
        """, "cache.py": """
            def touch(stats):
                stats.hits_ever += 1
        """})
        assert codes(result) == ["SIM005"]
        assert "never surfaced" in result.violations[0].message

    def test_cross_file_increment_and_read_clean(self, tmp_path):
        result = run_lint(tmp_path, {"stats.py": """
            from dataclasses import dataclass
            @dataclass
            class CacheStats:
                hits_ever: int = 0
        """, "cache.py": """
            def touch(stats):
                stats.hits_ever += 1
        """, "report.py": """
            def summarize(stats):
                return {"hits": stats.hits_ever}
        """})
        assert codes(result) == []

    def test_reporter_method_surfaces_everything(self, tmp_path):
        result = run_lint(tmp_path, {"stats.py": """
            import dataclasses
            from dataclasses import dataclass
            @dataclass
            class CacheStats:
                hits_ever: int = 0
                def as_dict(self):
                    return dataclasses.asdict(self)
        """, "cache.py": """
            def touch(stats):
                stats.hits_ever += 1
        """})
        assert codes(result) == []

    def test_non_stats_dataclass_ignored(self, tmp_path):
        result = run_lint(tmp_path, {"model.py": """
            from dataclasses import dataclass
            @dataclass
            class Line:
                tag: int = 0
        """})
        assert codes(result) == []

    def test_suppressed_at_field_line(self, tmp_path):
        result = run_lint(tmp_path, {"stats.py": """
            from dataclasses import dataclass
            @dataclass
            class CacheStats:
                hits_ever: int = 0  # lint: disable=SIM005
                def as_dict(self):
                    return {"hits_ever": self.hits_ever}
        """})
        assert codes(result) == []


class TestSIM007SwallowedExceptions:
    def test_bare_except_fires(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            def step(cache):
                try:
                    cache.access(0)
                except:
                    pass
        """})
        assert codes(result) == ["SIM007"]

    def test_swallowed_broad_exception_fires(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            def step(cache):
                try:
                    cache.access(0)
                except Exception:
                    pass
        """})
        assert codes(result) == ["SIM007"]

    def test_specific_handler_clean(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            def step(cache):
                try:
                    cache.access(0)
                except KeyError:
                    pass
        """})
        assert codes(result) == []

    def test_broad_handler_that_handles_clean(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            def step(cache, log):
                try:
                    cache.access(0)
                except Exception as error:
                    log.append(error)
                    raise
        """})
        assert codes(result) == []

    def test_suppressed(self, tmp_path):
        result = run_lint(tmp_path, {"sim.py": """
            def step(cache):
                try:
                    cache.access(0)
                except:  # lint: disable=SIM007
                    pass
        """})
        assert codes(result) == []


class TestSIM009PrivateReachThrough:
    def test_cross_object_private_access_fires(self, tmp_path):
        result = run_lint(tmp_path, {"system.py": """
            def writeback(shared):
                for set_index, line in shared.l2.iter_lines():
                    shared.l2._evict(set_index, line.tag)
        """})
        assert codes(result) == ["SIM009"]

    def test_self_and_cls_access_clean(self, tmp_path):
        result = run_lint(tmp_path, {"cache.py": """
            class Cache:
                def __init__(self):
                    self._sets = []
                def occupancy(self):
                    return len(self._sets)
                @classmethod
                def make(cls):
                    return cls._default()
                @classmethod
                def _default(cls):
                    return Cache()
        """})
        assert codes(result) == []

    def test_same_file_collaboration_clean(self, tmp_path):
        result = run_lint(tmp_path, {"cache.py": """
            class Cache:
                def _evict(self, tag):
                    return tag
            class Shim:
                def drop(self, cache, tag):
                    return cache._evict(tag)
        """})
        assert codes(result) == []

    def test_nested_attribute_receiver_fires(self, tmp_path):
        result = run_lint(tmp_path, {"system.py": """
            def peek(shared):
                return shared.l2._access_index
        """})
        assert codes(result) == ["SIM009"]

    def test_dunder_and_namedtuple_api_exempt(self, tmp_path):
        result = run_lint(tmp_path, {"tools.py": """
            def clone(config, point):
                config.__dict__
                return point._replace(x=1)
        """})
        assert codes(result) == []

    def test_suppressed(self, tmp_path):
        result = run_lint(tmp_path, {"reference.py": """
            def writeback(l2, set_index, tag):
                return l2._evict(set_index, tag)  # lint: disable=SIM009
        """})
        assert codes(result) == []
