"""Facade-import regression tests.

The PEP 562 deprecation shim at ``repro.experiments.runner`` is gone
(two PRs past its introduction): the module must stay *absent*, the
driver must carry the whole supported surface, and the public facades
(``repro.api``, ``repro.serve``) must keep exporting the names
downstream code imports.
"""

import importlib

import pytest


class TestRunnerShimRetired:
    def test_runner_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.experiments.runner")

    def test_driver_carries_the_moved_surface(self):
        from repro.experiments import driver

        for name in ("main", "run_experiments", "resolve_names",
                     "export_table_metrics"):
            assert callable(getattr(driver, name))


class TestApiFacade:
    def test_public_names(self):
        import repro.api as api

        for name in api.__all__:
            assert hasattr(api, name), name
        assert {"simulate", "run_experiment", "simulation_cache",
                "connect"} <= set(api.__all__)

    def test_connect_rejects_bad_endpoints_typed(self):
        from repro.serve import ServeClientError

        import repro.api as api

        with pytest.raises(ServeClientError) as info:
            api.connect([])
        assert info.value.code == "bad_endpoint"


class TestServeFacade:
    def test_public_names(self):
        import repro.serve as serve

        for name in serve.__all__:
            assert hasattr(serve, name), name
        assert {"Router", "HashRing", "MemoryTier", "connect",
                "ServeHandle", "SCHEMA_VERSION"} <= set(serve.__all__)

    def test_handle_is_a_simulation_provider(self):
        from repro.experiments.common import SimulationProvider
        from repro.serve.handle import ServeHandle

        assert issubclass(ServeHandle, SimulationProvider)
