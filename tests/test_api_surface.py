"""Tests of the public API surface and package-level contracts."""

import ast
import importlib
import pathlib

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Directories whose code counts as a caller of library code (tests do not).
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: Public library names allowed to have no caller yet, each with its reason.
UNCALLED_ALLOWLIST = {
    "verify_littles_law": "queueing validator the M/G/1 checks build on (ROADMAP 3(a))",
    "utilisation": "queueing validator the M/G/1 checks build on (ROADMAP 3(a))",
    "sample_fault_spec": "adversarial fault-spec sampler for ROADMAP 3(d)",
    "diurnal_profile": "rate shape of the load-drift experiment (test_load_drift)",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _referenced_names(tree: ast.Module) -> set[str]:
    """``Name``/``Attribute`` names a module uses, minus self-references.

    Imports and ``__all__`` strings are not ``Name`` nodes, so they do
    not count; neither does a definition's use of its own name.
    """
    names: set[str] = set()
    for stmt in tree.body:
        used = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        if isinstance(stmt, _DEFS):
            used.discard(stmt.name)
        names |= used
    return names


class TestNoTestOnlyLibraryCode:
    def test_every_public_definition_has_a_caller(self):
        referenced: set[str] = set()
        for directory in CALLER_DIRS:
            for path in (REPO_ROOT / directory).rglob("*.py"):
                referenced |= _referenced_names(ast.parse(path.read_text()))
        defined: dict[str, str] = {}
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                if isinstance(stmt, _DEFS) and not stmt.name.startswith("_"):
                    defined[stmt.name] = str(path.relative_to(REPO_ROOT))
        uncalled = sorted(
            f"{where}:{name}"
            for name, where in defined.items()
            if name not in referenced and name not in UNCALLED_ALLOWLIST
        )
        assert not uncalled, (
            "public library code with no caller outside tests: "
            + ", ".join(uncalled)
        )
        stale = sorted(set(UNCALLED_ALLOWLIST) - set(defined))
        assert not stale, f"allowlisted names no longer defined: {stale}"
