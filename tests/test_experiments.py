"""Tests for the experiment runner, scenarios and report formatting."""

import dataclasses

import numpy as np
import pytest

from repro.config import ServerConfig, TargetTableConfig
from repro.core.target_table import TargetTable
from repro.errors import ConfigError
from repro.exec import CellSpec, run_cell
from repro.experiments import (
    DEFAULT_QPS_GRID,
    FIGURE_POLICIES,
    format_table,
    run_load_sweep,
)
from repro.experiments.runner import (
    build_search_target_table,
    make_measure_tail,
    make_measure_tail_batch,
)
from repro.experiments.report import format_cdf_rows
from repro.sim.metrics import degree_distribution


class TestRunSearchExperiment:
    """One declared single-server cell, run through the exec layer."""

    def test_basic_run_completes_all(self, tiny_workload_spec, target_table):
        result = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "TPC", qps=200.0, n_requests=1500,
            seed=2, target_table=target_table,
        ))
        assert result.summary.count == 1500
        assert result.summary.p99_ms > result.summary.p50_ms
        assert result.summary.p999_ms >= result.summary.p99_ms

    def test_same_seed_is_reproducible(self, tiny_workload_spec, target_table):
        spec = CellSpec.for_experiment(
            tiny_workload_spec, "TPC", qps=300.0, n_requests=800, seed=5,
            target_table=target_table,
        )
        a = run_cell(spec, cache=None)
        b = run_cell(spec, cache=None)
        np.testing.assert_array_equal(a.responses_ms, b.responses_ms)

    def test_policies_see_identical_traces(self, tiny_workload_spec, target_table):
        """Paired comparison: same (seed, qps) -> same demands."""
        a = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "Sequential", 200.0, 500, 7,
            target_table=target_table,
        ))
        b = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "TPC", 200.0, 500, 7,
            target_table=target_table,
        ))
        assert sorted(a.demands_ms) == sorted(b.demands_ms)

    def test_perfect_prediction_mode(self, tiny_workload_spec, target_table):
        result = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "Pred", 200.0, 500, 3,
            target_table=target_table, prediction="perfect",
        ))
        np.testing.assert_allclose(result.predictions_ms, result.demands_ms)

    def test_server_config_override(self, tiny_workload_spec, target_table):
        result = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "TPC", 100.0, 300, 3,
            target_table=target_table,
            server_config=ServerConfig(max_parallelism=2),
        ))
        assert max(result.max_degrees) <= 2

    def test_degree_distribution_reachable(self, tiny_workload_spec, target_table):
        result = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "TPC", 200.0, 800, 3,
            target_table=target_table,
        ))
        dist = degree_distribution(
            result.demands_ms, result.max_degrees, 80.0, 6
        )
        assert set(dist) == {"short", "long"}
        assert len(dist["short"]) == 6

    def test_rejects_zero_requests(self, tiny_workload_spec, target_table):
        with pytest.raises(ConfigError):
            CellSpec.for_experiment(
                tiny_workload_spec, "TPC", 100.0, 0, 1,
                target_table=target_table,
            )


class TestRunLoadSweep:
    def test_sweep_shape(self, tiny_search_workload, target_table):
        results = run_load_sweep(
            tiny_search_workload, ["Sequential", "TPC"], [100.0, 300.0],
            n_requests=500, seed=1, target_table=target_table,
        )
        assert set(results) == {"Sequential", "TPC"}
        assert [r.qps for r in results["TPC"]] == [100.0, 300.0]

    def test_workload_without_provenance_rejected(self, tiny_search_workload):
        bare = dataclasses.replace(tiny_search_workload, provenance=None)
        with pytest.raises(ConfigError, match="provenance"):
            run_load_sweep(bare, ["Sequential"], [100.0], n_requests=50, seed=1)


class TestMeasureTailAndSearch:
    def test_measure_tail_returns_weighted_sum(self, tiny_search_workload):
        cfg = TargetTableConfig(
            measure_loads_qps=(100.0, 200.0),
            measure_weights=(1.0, 1.0),
            queries_per_measurement=400,
        )
        measure = make_measure_tail(tiny_search_workload, cfg, seed=9)
        flat = TargetTable.constant(40.0)
        total = measure(flat)
        assert total > 0

    def test_measure_tail_deterministic(self, tiny_search_workload):
        cfg = TargetTableConfig(
            measure_loads_qps=(150.0,),
            measure_weights=(1.0,),
            queries_per_measurement=400,
        )
        measure = make_measure_tail(tiny_search_workload, cfg, seed=9)
        table = TargetTable.constant(40.0)
        assert measure(table) == measure(table)

    def test_workload_without_provenance_rejected(self, tiny_search_workload):
        bare = dataclasses.replace(tiny_search_workload, provenance=None)
        with pytest.raises(ConfigError, match="provenance"):
            make_measure_tail_batch(bare, TargetTableConfig(), seed=9)

    def test_build_search_target_table_runs(self, tiny_search_workload):
        cfg = TargetTableConfig(
            load_grid=(0.0, 8.0),
            initial_target_ms=40.0,
            step_ms=20.0,
            measure_loads_qps=(150.0,),
            measure_weights=(1.0,),
            queries_per_measurement=300,
            max_iterations=3,
        )
        result = build_search_target_table(tiny_search_workload, cfg, seed=4)
        assert len(result.table) == 2
        assert result.measurements >= 3


class TestScenarios:
    def test_qps_grid_covers_paper_range(self):
        assert min(DEFAULT_QPS_GRID) <= 50
        assert max(DEFAULT_QPS_GRID) >= 900

    def test_figure_policies_registered(self):
        from repro.policies import policy_names

        names = set(policy_names())
        for figure, policies in FIGURE_POLICIES.items():
            for p in policies:
                assert p in names, f"{figure} references unknown policy {p}"


class TestReport:
    def test_format_table_aligns_columns(self):
        text = format_table(
            ["qps", "p99"], [[150, 52.123], [900, 188.4]], title="Fig 4"
        )
        lines = text.splitlines()
        assert lines[0] == "Fig 4"
        assert "52.1" in text
        assert "900" in text

    def test_format_cdf_rows(self):
        text = format_cdf_rows(
            {"TPC": [1.0] * 99 + [100.0], "AP": [2.0] * 100}, [50, 99]
        )
        assert "P50" in text and "P99" in text
        assert "TPC" in text and "AP" in text
