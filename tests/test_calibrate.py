"""Tests for workload calibration against Section 2 statistics."""

import numpy as np
import pytest

from repro.config import TARGET_MEAN_MS
from repro.errors import CalibrationError, SimulationError
from repro.search.calibrate import calibrate_workload
from repro.sim.metrics import distribution_stats


class TestStatistics:
    def test_known_sample(self):
        demands = np.array([1.0] * 85 + [50.0] * 11 + [200.0] * 4)
        stats = distribution_stats(demands)
        assert stats.short_fraction == pytest.approx(0.85)
        assert stats.long_fraction == pytest.approx(0.04)
        assert stats.median_ms == 1.0
        assert stats.max_ms == 200.0

    def test_ratios(self):
        demands = np.array([2.0] * 99 + [100.0])
        stats = distribution_stats(demands)
        assert stats.p99_over_median == pytest.approx(stats.p99_ms / 2.0)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            distribution_stats(np.array([]))


class TestCalibration:
    def test_scale_matches_mean_exactly(self):
        units = np.random.default_rng(0).exponential(1000.0, size=5000)
        result = calibrate_workload(units)
        scaled_mean = float((units * result.ms_per_unit).mean())
        assert scaled_mean == pytest.approx(TARGET_MEAN_MS)

    def test_statistics_reported_at_calibrated_scale(self):
        units = np.array([100.0, 200.0, 300.0])
        result = calibrate_workload(units)
        assert result.statistics.mean_ms == pytest.approx(TARGET_MEAN_MS)
        assert result.statistics.max_ms == pytest.approx(1.5 * TARGET_MEAN_MS)

    def test_rejects_empty(self):
        with pytest.raises(CalibrationError):
            calibrate_workload(np.array([]))

    def test_rejects_nonpositive_units(self):
        with pytest.raises(CalibrationError):
            calibrate_workload(np.array([1.0, 0.0]))
