"""End-to-end integration tests asserting the paper's qualitative
results on the miniature workload (fast versions of the benchmarks)."""

import pytest

from repro.config import PolicyConfig
from repro.exec import CellSpec, run_cell
from repro.experiments import run_load_sweep
from repro.core.target_table import TargetTable
from repro.sim.metrics import degree_distribution


SMALL_TT = TargetTable([(0, 25), (3, 30), (6, 40), (10, 60), (16, 65), (28, 70)])


def degrees(result, use_max_degree=True):
    """Table 2 split of one cell (long = true demand > 80 ms)."""
    chosen = result.max_degrees if use_max_degree else result.initial_degrees
    return degree_distribution(result.demands_ms, chosen, 80.0, 6)


@pytest.fixture(scope="module")
def sweep(tiny_search_workload):
    """One shared sweep of the main policies at a moderate and a high
    load (kept small: these are behavioural, not statistical, tests)."""
    return run_load_sweep(
        tiny_search_workload,
        ["Sequential", "AP", "Pred", "WQ-Linear", "TP", "TPC"],
        [150.0, 600.0],
        n_requests=6000,
        seed=31,
        target_table=SMALL_TT,
    )


class TestFigure4Shape:
    def test_tpc_beats_sequential_everywhere(self, sweep):
        for seq, tpc in zip(sweep["Sequential"], sweep["TPC"]):
            assert tpc.summary.p99_ms < seq.summary.p99_ms * 0.7

    def test_tpc_at_most_best_prior_p99(self, sweep):
        """TPC should be no worse than the best prior policy at P99.

        On the miniature test workload the light-load race is close —
        WQ-Linear's parallelize-everything is near-optimal when the
        machine is idle — so a 15 % tolerance absorbs that; the
        benchmark suite asserts the strict ordering on the full-size
        workload.
        """
        for i in range(2):
            best_prior = min(
                sweep[name][i].summary.p99_ms
                for name in ("Sequential", "AP", "Pred", "WQ-Linear")
            )
            assert sweep["TPC"][i].summary.p99_ms <= best_prior * 1.15

    def test_prediction_beats_prediction_free_at_high_load(self, sweep):
        """At high load, prediction-using policies (TPC, Pred) keep the
        tail low while AP/WQ-Linear degrade (Section 4.2)."""
        high = 1
        assert sweep["TPC"][high].summary.p99_ms < sweep["AP"][high].summary.p99_ms
        assert sweep["Pred"][high].summary.p99_ms < sweep["AP"][high].summary.p99_ms

    def test_pred_is_load_insensitive(self, sweep):
        """Pred ignores load: its tail barely moves from 150 to 600 QPS."""
        low, high = sweep["Pred"]
        assert high.summary.p99_ms < low.summary.p99_ms * 1.4


class TestFigure5Shape:
    def test_pred_poor_at_p999(self, sweep):
        """Mispredicted long queries sink Pred's P99.9 toward
        Sequential while TPC's correction holds it low (Section 4.3)."""
        for i in range(2):
            assert sweep["TPC"][i].summary.p999_ms < sweep["Pred"][i].summary.p999_ms

    def test_tpc_p999_well_below_sequential(self, sweep):
        for i in range(2):
            assert sweep["TPC"][i].summary.p999_ms < sweep["Sequential"][i].summary.p999_ms * 0.75


class TestFigure6Shape:
    def test_tp_and_tpc_similar_at_p99(self, sweep):
        """Prediction is accurate enough for the P99 range: correction
        contributes little there (Figure 6a)."""
        for i in range(2):
            assert sweep["TPC"][i].summary.p99_ms <= sweep["TP"][i].summary.p99_ms * 1.08

    def test_correction_improves_p999(self, sweep):
        """Dynamic correction pays off at the 99.9th percentile
        (Figure 6b)."""
        improvements = [
            sweep["TP"][i].summary.p999_ms - sweep["TPC"][i].summary.p999_ms for i in range(2)
        ]
        assert max(improvements) > 0

    def test_correction_fires_only_on_a_small_fraction(self, sweep):
        for result in sweep["TPC"]:
            rate = result.corrected.mean()
            assert 0.0 < rate < 0.15


class TestTable2Shape:
    def test_tpc_runs_short_queries_sequentially(self, sweep):
        dist = degrees(sweep["TPC"][0])
        assert dist["short"][0] > 85.0  # % of short at degree 1

    def test_tpc_parallelizes_long_queries(self, sweep):
        dist = degrees(sweep["TPC"][0])
        high_degree = sum(dist["long"][3:])  # degrees 4-6
        assert high_degree > 50.0

    def test_ap_gives_same_degree_to_short_and_long(self, sweep):
        dist = degrees(sweep["AP"][0], use_max_degree=False)
        # distributions across degrees should be nearly identical
        for s, l in zip(dist["short"], dist["long"]):
            assert abs(s - l) < 12.0

    def test_ap_degrees_collapse_at_high_load(self, sweep):
        low = degrees(sweep["AP"][0], use_max_degree=False)
        high = degrees(sweep["AP"][1], use_max_degree=False)
        mean_low = sum((i + 1) * p for i, p in enumerate(low["long"])) / 100
        mean_high = sum((i + 1) * p for i, p in enumerate(high["long"])) / 100
        assert mean_high < mean_low


class TestRampUpComparison:
    def test_tpc_beats_rampup_at_moderate_load(self, tiny_workload_spec):
        tpc = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "TPC", 450.0, 6000, 31,
            target_table=SMALL_TT,
        ))
        for interval in (5.0, 10.0, 20.0):
            ramp = run_cell(CellSpec.for_experiment(
                tiny_workload_spec, "RampUp", 450.0, 6000, 31,
                policy_config=PolicyConfig(rampup_interval_ms=interval),
            ))
            assert tpc.summary.p99_ms <= ramp.summary.p99_ms * 1.05, f"interval={interval}"


class TestPredictorSensitivity:
    def test_tpc_with_real_predictor_close_to_perfect(self, tiny_workload_spec):
        """Section 4.6: dynamic correction compensates prediction error,
        keeping TPC near the perfect-predictor bound."""
        real = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "TPC", 450.0, 8000, 13,
            target_table=SMALL_TT, prediction="model",
        ))
        perfect = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "TPC", 450.0, 8000, 13,
            target_table=SMALL_TT, prediction="perfect",
        ))
        assert real.summary.p99_ms <= perfect.summary.p99_ms * 1.35

    def test_tp_suffers_more_without_correction(self, tiny_workload_spec):
        tp_real = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "TP", 450.0, 8000, 13,
            target_table=SMALL_TT, prediction="model",
        ))
        tpc_real = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "TPC", 450.0, 8000, 13,
            target_table=SMALL_TT, prediction="model",
        ))
        assert tpc_real.summary.p999_ms <= tp_real.summary.p999_ms * 1.02
