"""Integration tests for ``repro.gate``: cold/warm execution through
the exec cache, the perturbation self-test, the JSON artifact, and the
CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.exec import ResultCache
from repro.gate import CHECKS, run_gate, scale_for_mode
from repro.gate.__main__ import main as gate_main
from repro.gate.runner import baseline_metrics, select_checks

#: Generous ceiling for the fast gate with a cold cache (the CI job
#: budget is 30 minutes; a healthy run is well under one).
FAST_COLD_BUDGET_S = 600.0


@pytest.fixture(scope="module")
def gate_cache(tmp_path_factory):
    """A fresh exec cache shared by the cold and warm runs below."""
    return ResultCache(tmp_path_factory.mktemp("gate-exec-cache"))


@pytest.fixture(scope="module")
def cold_report(gate_cache):
    """One cold fast-mode gate run (the expensive fixture)."""
    return run_gate(mode="fast", cache=gate_cache, baselines={}, workers=1)


class TestColdRun:
    def test_fast_mode_passes_under_ci_budget(self, cold_report):
        assert cold_report.status == "pass", cold_report.render_summary()
        assert cold_report.total_wall_time_s < FAST_COLD_BUDGET_S
        # Cold means every cell was simulated, none served from cache.
        assert cold_report.cells_from_cache == 0
        assert cold_report.cells_executed == cold_report.cells_total > 0

    def test_every_registered_check_ran(self, cold_report):
        assert [c.name for c in cold_report.checks] == list(CHECKS)
        assert all(c.measurements for c in cold_report.checks)

    def test_report_artifact_roundtrip(self, cold_report, tmp_path):
        path = cold_report.write(tmp_path / "BENCH_gate.json")
        document = json.loads(path.read_text())
        assert document["schema_version"] == 2
        assert document["generated_by"] == "repro.gate"
        assert document["mode"] == "fast"
        assert document["status"] == "pass"
        assert document["counts"]["failed"] == 0
        assert document["timing"]["cells_total"] == cold_report.cells_total
        assert {c["name"] for c in document["checks"]} == set(CHECKS)
        for check in document["checks"]:
            for m in check["measurements"]:
                assert isinstance(m["passed"], bool)
                assert isinstance(m["value"], float)

    def test_baseline_metrics_extracted(self, cold_report):
        metrics = baseline_metrics(cold_report)
        assert "tpc_p99@450" in metrics
        assert "hotpath_events_run" in metrics
        assert all(isinstance(v, float) for v in metrics.values())


class TestWarmRun:
    def test_warm_rerun_is_served_from_cache(self, gate_cache, cold_report):
        events = []
        warm = run_gate(
            mode="fast",
            cache=gate_cache,
            baselines={},
            workers=1,
            progress=events.append,
        )
        assert warm.status == "pass"
        assert warm.cells_from_cache == warm.cells_total
        assert warm.cells_executed == 0
        # The Fig 8 cluster run is one of the cells served from cache.
        cluster = [e for e in events if e.spec.cluster_config is not None]
        assert len(cluster) == 1 and cluster[0].from_cache
        # Near-free: no simulation beyond the always-live perf check.
        assert warm.total_wall_time_s < 0.5 * cold_report.total_wall_time_s

    def test_warm_numbers_identical_to_cold(self, gate_cache, cold_report):
        warm = run_gate(
            mode="fast", cache=gate_cache, baselines={}, workers=1
        )
        for name in ("demand_distribution", "policy_ordering_p99"):
            cold_values = {
                m.metric: m.value for m in cold_report.check(name).measurements
            }
            warm_values = {
                m.metric: m.value for m in warm.check(name).measurements
            }
            assert warm_values == cold_values


class TestPerturbation:
    def test_perturbed_metric_fails_exactly_its_check(
        self, gate_cache, cold_report
    ):
        """The acceptance self-test: +30% on TPC's p99 ratio violates
        the p99 ordering band and nothing else."""
        report = run_gate(
            mode="fast",
            cache=gate_cache,
            baselines={},
            workers=1,
            perturb={"p99_ratio@450:TPC/TP": 1.3},
        )
        assert report.status == "fail"
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["policy_ordering_p99"] == "fail"
        assert all(
            status == "pass"
            for name, status in statuses.items()
            if name != "policy_ordering_p99"
        ), statuses
        violations = report.check("policy_ordering_p99").violations
        assert [v.metric for v in violations] == ["p99_ratio@450:TPC/TP"]
        # The report names the violated band.
        assert "1.08" in violations[0].describe()
        assert violations[0].perturbed

    def test_only_restricts_and_validates_names(self, gate_cache):
        report = run_gate(
            mode="fast",
            only=["perf_budget"],
            cache=gate_cache,
            baselines={},
            workers=1,
        )
        assert [c.name for c in report.checks] == ["perf_budget"]
        assert report.cells_total == 0
        with pytest.raises(ConfigError):
            select_checks(["no_such_check"])


class TestScales:
    def test_modes_are_registered(self):
        fast, full = scale_for_mode("fast"), scale_for_mode("full")
        assert fast.n_requests < full.n_requests
        assert fast.qps_grid == full.qps_grid
        with pytest.raises(ConfigError):
            scale_for_mode("medium")

    def test_checks_declare_dedupable_cells(self):
        scale = scale_for_mode("fast")
        hashes: set[str] = set()
        for check in CHECKS.values():
            for cell in check.cells(scale):
                hashes.add(cell.content_hash)
        # The ordering checks share their 12-cell grid, every other
        # cell-driven check reuses a subset of it, and the cluster check
        # adds its one cluster cell.
        assert len(hashes) == 12 + 1


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert gate_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in CHECKS:
            assert name in out

    def test_bad_perturb_is_usage_error(self, capsys):
        assert gate_main(["--perturb", "nonsense"]) == 2

    def test_mutually_exclusive_modes(self):
        with pytest.raises(SystemExit):
            gate_main(["--fast", "--full"])
