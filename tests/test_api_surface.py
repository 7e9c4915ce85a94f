"""Tests of the public API surface and package-level contracts."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version_is_semver(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_subpackages_importable(self):
        for sub in (
            "core", "sim", "search", "prediction", "policies",
            "cluster", "finance", "experiments", "analysis",
            "resilience",
        ):
            module = importlib.import_module(f"repro.{sub}")
            assert hasattr(module, "__all__")

    def test_error_hierarchy_rooted(self):
        from repro.errors import (
            CalibrationError,
            ConfigError,
            PredictionError,
            ReproError,
            SchedulingError,
            SimulationError,
            TargetTableError,
            WorkloadError,
        )

        for exc in (
            ConfigError,
            SimulationError,
            SchedulingError,
            WorkloadError,
            CalibrationError,
            PredictionError,
            TargetTableError,
        ):
            assert issubclass(exc, ReproError)
        # Scheduling errors are simulation errors (catchable together).
        assert issubclass(SchedulingError, SimulationError)
        assert issubclass(CalibrationError, WorkloadError)

    def test_public_items_documented(self):
        """Every public symbol re-exported at top level has a docstring."""
        for name in repro.__all__:
            obj = getattr(repro, name)
            if name == "__version__":
                continue
            assert getattr(obj, "__doc__", None), f"repro.{name} undocumented"

    def test_module_docstrings_everywhere(self):
        import pathlib

        src = pathlib.Path(repro.__file__).parent
        for path in src.rglob("*.py"):
            relative = str(path.relative_to(src))[:-3]
            parts = [p for p in relative.replace("\\", "/").split("/") if p]
            module_name = ".".join(["repro", *parts]).removesuffix(".__init__")
            module = importlib.import_module(module_name)
            assert module.__doc__, f"{module_name} lacks a module docstring"


class TestScenarioContracts:
    def test_default_tables_are_valid(self):
        from repro.experiments import (
            DEFAULT_FINANCE_TARGET_TABLE,
            DEFAULT_SEARCH_TARGET_TABLE,
        )

        for table in (DEFAULT_SEARCH_TARGET_TABLE, DEFAULT_FINANCE_TARGET_TABLE):
            targets = [table.target_for(x) for x in range(0, 40, 2)]
            assert all(b >= a for a, b in zip(targets, targets[1:]))

    def test_search_table_tightest_when_idle(self):
        from repro.experiments import DEFAULT_SEARCH_TARGET_TABLE as table

        assert table.target_for(0.0) == min(table.targets)

    def test_default_workload_cached(self, monkeypatch):
        """``default_workload`` is the exec layer's memoised copy."""
        from repro.exec import WorkloadSpec, forget_workload, memoised_workload
        from repro.experiments.scenarios import (
            default_workload,
            default_workload_spec,
        )

        spec = default_workload_spec(seed=5, pool_size=100)
        monkeypatch.setattr(WorkloadSpec, "build", lambda self: object())
        try:
            assert default_workload(5, 100) is memoised_workload(spec)
        finally:
            forget_workload(spec)

    def test_policy_registry_matches_figure_sets(self):
        from repro.experiments import FIGURE_POLICIES
        from repro.policies import policy_names

        names = set(policy_names())
        for policies in FIGURE_POLICIES.values():
            assert set(policies) <= names
