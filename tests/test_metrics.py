"""Tests for latency metrics and percentile utilities."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.metrics import (
    LatencyRecorder,
    LatencySummary,
    degree_distribution,
    percentile,
    weighted_tail_latency,
)
from repro.sim.request import RequestState

from conftest import make_request


def completed_request(rid, demand, pred=None, degree=1, max_degree=None,
                      corrected=False, arrival=0.0, start=0.0, finish=None):
    req = make_request(rid, demand, pred)
    req.state = RequestState.COMPLETED
    req.arrival_ms = arrival
    req.start_ms = start
    req.finish_ms = finish if finish is not None else start + demand
    req.initial_degree = degree
    req.max_degree_seen = max_degree if max_degree is not None else degree
    req.corrected = corrected
    return req


class TestPercentile:
    def test_median_of_known_sample(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_p99_of_uniform_grid(self):
        values = list(range(1, 1001))
        assert percentile(values, 99) == pytest.approx(990.01)

    def test_empty_sample_rejected(self):
        with pytest.raises(SimulationError):
            percentile([], 99)

    @pytest.mark.parametrize("p", [0, 100, -5, 101])
    def test_out_of_range_percentile_rejected(self, p):
        with pytest.raises(SimulationError):
            percentile([1.0], p)


class TestWeightedTail:
    def test_weighted_sum_of_percentiles(self):
        s1 = [10.0] * 100
        s2 = [20.0] * 100
        total = weighted_tail_latency([s1, s2], [1.0, 2.0], 99)
        assert total == pytest.approx(10.0 + 40.0)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            weighted_tail_latency([[1.0]], [1.0, 2.0], 99)


class TestLatencyRecorder:
    def test_record_and_summary(self):
        rec = LatencyRecorder()
        for i, demand in enumerate([10.0, 20.0, 30.0]):
            rec.record(completed_request(i, demand))
        summary = rec.summary()
        assert summary.count == 3
        assert summary.mean_ms == pytest.approx(20.0)
        assert summary.max_ms == 30.0
        assert summary == LatencySummary.from_latencies(np.array([10.0, 20.0, 30.0]))

    def test_queueing_separated_from_execution(self):
        rec = LatencyRecorder()
        rec.record(completed_request(0, 10.0, arrival=0.0, start=5.0, finish=15.0))
        assert rec.queueing_ms[0] == pytest.approx(5.0)
        assert rec.executions_ms[0] == pytest.approx(10.0)
        assert rec.responses_ms[0] == pytest.approx(15.0)

    def test_correction_rate(self):
        rec = LatencyRecorder()
        rec.record(completed_request(0, 10.0, corrected=True))
        rec.record(completed_request(1, 10.0, corrected=False))
        assert rec.correction_rate() == pytest.approx(0.5)

    def test_correction_rate_empty_is_zero(self):
        assert LatencyRecorder().correction_rate() == 0.0

    def test_summary_empty_rejected(self):
        with pytest.raises(SimulationError):
            LatencyRecorder().summary()

    def test_summary_as_row_keys(self):
        rec = LatencyRecorder()
        rec.record(completed_request(0, 10.0))
        row = rec.summary().as_row()
        assert set(row) >= {"count", "mean_ms", "p99_ms", "p999_ms"}


class TestDegreeDistribution:
    def test_percentages_split_by_true_demand_class(self):
        rec = LatencyRecorder()
        # Two short at degree 1, one short at 2; one long at 6.
        rec.record(completed_request(0, 10.0, degree=1))
        rec.record(completed_request(1, 12.0, degree=1))
        rec.record(completed_request(2, 14.0, degree=2))
        rec.record(completed_request(3, 150.0, degree=6))
        dist = degree_distribution(
            rec.demands_ms, rec.max_degrees, long_threshold_ms=80.0, max_degree=6
        )
        assert dist["short"][0] == pytest.approx(100 * 2 / 3)
        assert dist["short"][1] == pytest.approx(100 / 3)
        assert dist["long"][5] == pytest.approx(100.0)

    def test_rows_sum_to_100(self):
        rec = LatencyRecorder()
        for i in range(10):
            rec.record(completed_request(i, 10.0 + i * 20, degree=(i % 6) + 1))
        dist = degree_distribution(rec.demands_ms, rec.max_degrees, 80.0, 6)
        assert sum(dist["short"]) == pytest.approx(100.0)
        assert sum(dist["long"]) == pytest.approx(100.0)

    def test_max_degree_mode_captures_correction(self):
        rec = LatencyRecorder()
        rec.record(completed_request(0, 150.0, degree=1, max_degree=6))
        by_max = degree_distribution(rec.demands_ms, rec.max_degrees, 80.0, 6)
        by_initial = degree_distribution(
            rec.demands_ms, rec.initial_degrees, 80.0, 6
        )
        assert by_max["long"][5] == 100.0
        assert by_initial["long"][0] == 100.0

    def test_empty_class_yields_zero_row(self):
        rec = LatencyRecorder()
        rec.record(completed_request(0, 10.0, degree=1))
        dist = degree_distribution(rec.demands_ms, rec.max_degrees, 80.0, 6)
        assert sum(dist["long"]) == 0.0

