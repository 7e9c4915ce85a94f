"""Unit tests for the gate's judgement layer: bands, measurements,
baselines, and the pure check-evaluation functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gate import (
    Band,
    Measurement,
    demand_measurements,
    load_baselines,
    ordering_measurements,
    save_baselines,
)
from repro.gate.bands import evaluate_measurement
from repro.gate.baselines import merge_baselines
from repro.gate.checks import (
    P99_PAIR_TOLERANCE,
    cluster_measurements,
    run_hotpath_benchmark,
)
from repro.gate.checks import ClusterProbe
from repro.sim.metrics import LatencyRecorder, distribution_stats


def _paperlike_demands(rng: np.random.Generator, n: int = 20_000) -> np.ndarray:
    """A synthetic sample shaped like the paper's demand distribution:
    ~95% short lognormal queries, ~5% long 100-300 ms queries."""
    short = rng.lognormal(mean=np.log(3.3), sigma=0.9, size=n)
    long = rng.uniform(100.0, 300.0, size=n)
    is_long = rng.random(n) < 0.05
    return np.where(is_long, long, short)


class TestBand:
    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError):
            Band()

    def test_absolute_bounds(self):
        band = Band(lo=1.0, hi=2.0)
        assert band.bounds(None) == (1.0, 2.0)

    def test_relative_bounds_fold_in_baseline(self):
        band = Band(rel_lo=0.5, rel_hi=1.5)
        assert band.bounds(100.0) == (50.0, 150.0)
        assert band.bounds(None) == (None, None)

    def test_tighter_bound_wins(self):
        band = Band(lo=10.0, hi=200.0, rel_lo=0.5, rel_hi=1.5)
        # Baseline 100: relative lo 50 beats absolute 10; relative
        # hi 150 beats absolute 200.
        assert band.bounds(100.0) == (50.0, 150.0)
        # Baseline 10: absolute lo 10 beats relative 5; relative hi 15
        # beats absolute 200.
        assert band.bounds(10.0) == (10.0, 15.0)


class TestEvaluateMeasurement:
    def test_pass_and_fail(self):
        m = Measurement("x", 5.0, Band(lo=1.0, hi=10.0))
        assert evaluate_measurement(m).passed
        m = Measurement("x", 50.0, Band(lo=1.0, hi=10.0))
        assert not evaluate_measurement(m).passed

    def test_informational_always_passes(self):
        m = Measurement("x", 1e9, None)
        out = evaluate_measurement(m)
        assert out.passed and out.informational
        assert "recorded" in out.describe()

    def test_missing_baseline_skips_relative_bounds(self):
        m = Measurement("x", 500.0, Band(rel_lo=0.9, rel_hi=1.1))
        out = evaluate_measurement(m, baselines={})
        assert out.passed
        assert "no baseline" in out.note

    def test_baseline_resolves_relative_bounds(self):
        m = Measurement("x", 500.0, Band(rel_lo=0.9, rel_hi=1.1))
        out = evaluate_measurement(m, baselines={"x": 100.0})
        assert not out.passed
        assert out.baseline == 100.0
        assert (out.lo, out.hi) == (pytest.approx(90.0), pytest.approx(110.0))

    def test_perturbation_applies_before_judgement(self):
        m = Measurement("x", 5.0, Band(hi=6.0))
        out = evaluate_measurement(m, perturb={"x": 1.3})
        assert out.perturbed
        assert out.value == pytest.approx(6.5)
        assert not out.passed
        assert "VIOLATED" in out.describe()

    def test_json_rendering_is_plain_python(self):
        m = Measurement("x", np.float64(5.0), Band(hi=np.float64(6.0)))
        out = evaluate_measurement(m)
        assert isinstance(out.value, float)
        assert isinstance(out.passed, bool)


class TestDemandCheck:
    def test_paperlike_sample_passes(self):
        stats = distribution_stats(
            _paperlike_demands(np.random.default_rng(5))
        )
        results = [evaluate_measurement(m) for m in demand_measurements(stats)]
        assert all(r.passed for r in results), [
            r.describe() for r in results if not r.passed
        ]

    def test_doctored_recorder_fails_its_check(self):
        """A LatencyRecorder whose demand sample drifts 2x off the
        paper's distribution must fail the demand_distribution bands."""
        recorder = LatencyRecorder()
        doctored = 2.0 * _paperlike_demands(np.random.default_rng(5))
        recorder.demands_ms.extend(doctored.tolist())
        stats = distribution_stats(recorder.demands_ms)
        results = [evaluate_measurement(m) for m in demand_measurements(stats)]
        by_metric = {r.metric: r for r in results}
        # The check as a whole fails ...
        assert not all(r.passed for r in results)
        # ... and specifically the mean and median bands.
        assert not by_metric["demand_mean_ms"].passed
        assert not by_metric["demand_median_ms"].passed


class TestOrderingCheck:
    def _tails(self, tpc: float, tp: float, ap: float, seq: float):
        return {
            "TPC": {450.0: tpc},
            "TP": {450.0: tp},
            "AP": {450.0: ap},
            "Sequential": {450.0: seq},
        }

    def test_correct_chain_passes(self):
        ms = ordering_measurements(
            "p99",
            self._tails(70.0, 75.0, 120.0, 220.0),
            [450.0],
            P99_PAIR_TOLERANCE,
            "ref",
        )
        assert all(evaluate_measurement(m).passed for m in ms)

    def test_inverted_pair_fails_only_its_ratio(self):
        # TPC 30% slower than TP: the TPC/TP ratio must fail, the
        # other pairs must not.
        ms = ordering_measurements(
            "p99",
            self._tails(97.5, 75.0, 120.0, 220.0),
            [450.0],
            P99_PAIR_TOLERANCE,
            "ref",
        )
        results = {m.metric: evaluate_measurement(m) for m in ms}
        assert not results["p99_ratio@450:TPC/TP"].passed
        assert results["p99_ratio@450:TP/AP"].passed
        assert results["p99_ratio@450:AP/Sequential"].passed


class TestClusterCheck:
    def test_consistent_probe_passes(self):
        probe = ClusterProbe(
            aggregator_p99_ms=75.0,
            isn_p99_ms=63.0,
            isn_percentile_at_aggregator_p99=99.7,
        )
        ms = cluster_measurements(probe, single_isn_p99_ms=72.0)
        assert all(evaluate_measurement(m).passed for m in ms)

    def test_aggregator_faster_than_isns_is_inconsistent(self):
        probe = ClusterProbe(
            aggregator_p99_ms=50.0,
            isn_p99_ms=63.0,
            isn_percentile_at_aggregator_p99=97.0,
        )
        ms = cluster_measurements(probe, single_isn_p99_ms=72.0)
        results = {m.metric: evaluate_measurement(m) for m in ms}
        assert not results["cluster_agg_p99_over_isn_p99"].passed
        assert not results["cluster_isn_pct_at_agg_p99"].passed


class TestHotpath:
    def test_event_count_is_deterministic(self):
        a = run_hotpath_benchmark(1_500, seed=11)
        b = run_hotpath_benchmark(1_500, seed=11)
        assert a.events_run == b.events_run
        assert a.n_requests == b.n_requests == 1_500

    def test_throughputs_are_positive(self):
        result = run_hotpath_benchmark(1_000, seed=11)
        assert result.events_per_s > 0
        assert result.requests_per_s > 0


class TestBaselines:
    def test_missing_file_degrades_to_empty(self, tmp_path):
        assert load_baselines(tmp_path / "absent.json") == {}
        assert load_baselines(tmp_path / "absent.json", mode="fast") == {}

    def test_roundtrip_is_bit_stable(self, tmp_path):
        path = tmp_path / "gate_baseline.json"
        document = merge_baselines(
            {}, "fast", {"tpc_p99@450": 73.844862}, git_sha="abc123"
        )
        save_baselines(document, path)
        first = path.read_bytes()
        loaded = load_baselines(path)
        assert loaded == document
        save_baselines(loaded, path)
        assert path.read_bytes() == first

    def test_mode_view_and_merge_preserves_other_modes(self, tmp_path):
        path = tmp_path / "gate_baseline.json"
        document = merge_baselines({}, "fast", {"x": 1.0})
        document = merge_baselines(document, "full", {"x": 2.0})
        save_baselines(document, path)
        assert load_baselines(path, mode="fast") == {"x": 1.0}
        assert load_baselines(path, mode="full") == {"x": 2.0}
        assert load_baselines(path, mode="unknown") == {}

    def test_merge_keeps_other_metrics_of_the_mode(self):
        # `--only perf_budget --update-baselines` used to drop tpc_*.
        document = merge_baselines({}, "fast", {"tpc_p99@450": 73.844862})
        document = merge_baselines(
            document, "fast", {"hotpath_events_run": 12472.0}
        )
        assert document["modes"]["fast"] == {
            "tpc_p99@450": 73.844862,
            "hotpath_events_run": 12472.0,
        }
        document = merge_baselines(document, "fast", {"tpc_p99@450": 70.0})
        assert document["modes"]["fast"]["tpc_p99@450"] == 70.0

    def test_corrupt_file_raises_config_error(self, tmp_path):
        path = tmp_path / "gate_baseline.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_baselines(path)

    def test_wrong_schema_raises_config_error(self, tmp_path):
        path = tmp_path / "gate_baseline.json"
        path.write_text('{"schema_version": 99, "modes": {}}')
        with pytest.raises(ConfigError):
            load_baselines(path)
