"""Tests of the public API surface and package-level contracts."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Directories whose code counts as a caller of library code (tests do not).
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: The module whose dataclasses hold every settable parameter.
CONFIG_PATH = REPO_ROOT / "src" / "repro" / "config.py"

#: Public library names allowed to have no caller yet, each with its reason.
UNCALLED_ALLOWLIST = {
    "verify_littles_law": "queueing validator the M/G/1 checks build on (ROADMAP 4(a))",
    "utilisation": "queueing validator the M/G/1 checks build on (ROADMAP 4(a))",
    "sample_fault_spec": "adversarial fault-spec sampler for ROADMAP 6(d)",
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


class TestDependencies:
    def test_no_scipy_module_is_loaded(self):
        # The package is numpy-only: scipy.optimize added ~44 MB and
        # ~0.45 s to every process (workers, the gate, each CLI).  A
        # fresh interpreter imports repro and every module under it (the
        # CLIs' __main__ aside) and lists what was loaded; no timing bound.
        script = (
            "import importlib, json, pkgutil, sys\n"
            "import repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not info.name.endswith('__main__'):\n"
            "        importlib.import_module(info.name)\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        loaded = json.loads(out.stdout.splitlines()[-1])
        assert "repro.search.parallel" in loaded
        assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


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


def _python_files(directories) -> list[pathlib.Path]:
    return [
        path
        for directory in directories
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    ]


def _config_fields(tree: ast.Module) -> dict[str, list[str]]:
    """Field names of every dataclass defined at the top of ``tree``."""
    return {
        stmt.name: [
            item.target.id
            for item in stmt.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in stmt.decorator_list)
    }


def _config_constants(tree: ast.Module) -> list[str]:
    """Public upper-case names assigned at the top of ``tree``."""
    names = []
    for stmt in tree.body:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign)
            else [stmt.target] if isinstance(stmt, ast.AnnAssign)
            else []
        )
        names += [
            t.id for t in targets
            if isinstance(t, ast.Name) and t.id.isupper() and t.id[0] != "_"
        ]
    return names


class TestConfigHoldsOnlySetFields:
    """A config field exists because a caller sets it; a fixed number is
    an upper-case constant of ``repro.config`` that some code reads."""

    def test_every_config_field_is_set_by_a_caller(self):
        fields = _config_fields(ast.parse(CONFIG_PATH.read_text()))
        assert fields, "no config dataclasses found"
        # Explicit keywords per callee name; ``**`` expansions do not
        # count, and ``replace`` is ``dataclasses.replace``.
        keywords: dict[str, set[str]] = {}
        for path in _python_files((*CALLER_DIRS, "tests")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                keywords.setdefault(callee, set()).update(
                    kw.arg for kw in node.keywords if kw.arg is not None
                )
        replaced = keywords.get("replace", set())
        unset = sorted(
            f"{cls}.{name}"
            for cls, names in fields.items()
            for name in names
            if name not in keywords.get(cls, set()) | replaced
        )
        assert not unset, (
            "config fields no call sets (make them constants): "
            + ", ".join(unset)
        )

    def test_every_config_constant_is_read(self):
        constants = _config_constants(ast.parse(CONFIG_PATH.read_text()))
        assert "LONG_QUERY_MS" in constants
        read: set[str] = set()
        for path in _python_files(CALLER_DIRS):
            if path != CONFIG_PATH:
                read |= _referenced_names(ast.parse(path.read_text()))
        unread = sorted(set(constants) - read)
        assert not unread, f"config constants nothing reads: {unread}"
