"""Tests for the task-pool parallel-execution model (Figure 2)."""

import pytest

from repro.errors import CalibrationError
from repro.search.parallel import (
    FIGURE2_TARGETS,
    fit_parallel_model,
)


@pytest.fixture(scope="module")
def fitted():
    return fit_parallel_model(
        serial_ms=1.2, task_grain_ms=1.0, task_overhead_ms=0.02
    )


class TestModelMechanics:
    def test_degree_one_time_equals_total(self, fitted):
        assert fitted.parallel_time(50.0, 1.2, 1) == 50.0

    def test_waste_fraction_decreases_with_length(self, fitted):
        assert fitted.waste_fraction(8.0) > fitted.waste_fraction(168.0)

    def test_profile_starts_at_one_and_is_monotone(self, fitted):
        profile = fitted.profile(100.0, 1.2, 6)
        assert profile.speedup(1) == 1.0
        values = profile.speedups
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_longer_queries_parallelize_better(self, fitted):
        short = fitted.profile(8.0, 1.2, 6)
        long = fitted.profile(168.0, 1.2, 6)
        assert long.speedup(6) > short.speedup(6) * 2

    def test_serial_only_request_does_not_speed_up(self, fitted):
        profile = fitted.profile(1.0, 1.2, 6)  # all-serial request
        assert profile.speedup(6) == pytest.approx(1.0)

    def test_rejects_nonpositive_total(self, fitted):
        with pytest.raises(CalibrationError):
            fitted.parallel_time(0.0, 1.0, 2)


class TestFigure2Fit:
    def test_fit_reproduces_group_speedups_roughly(self, fitted):
        """The fitted mechanism should land near the published Figure 2
        speedups: long ~4.1x, mid ~2.05x, short ~1.16x at 6 threads."""
        for load_ms, curve in FIGURE2_TARGETS.items():
            profile = fitted.profile(load_ms, 1.2, 6)
            for degree, target in curve.items():
                predicted = profile.speedup(degree)
                assert predicted == pytest.approx(target, rel=0.30), (
                    f"L={load_ms} d={degree}: {predicted:.2f} vs {target}"
                )

    def test_fit_long_group_order_of_magnitude(self, fitted):
        long6 = fitted.profile(168.0, 1.2, 6).speedup(6)
        assert 3.0 < long6 < 5.2

    def test_fit_short_group_near_unity(self, fitted):
        short6 = fitted.profile(8.0, 1.2, 6).speedup(6)
        assert short6 < 1.6

    def test_fit_parameters_positive(self, fitted):
        assert fitted.startup_overhead_ms >= 0
        assert fitted.waste_amplitude > 0
        assert fitted.waste_halflife_ms > 0

    def test_custom_targets_shift_fit(self):
        relaxed = fit_parallel_model(
            serial_ms=1.2,
            task_grain_ms=1.0,
            task_overhead_ms=0.02,
            targets={100.0: {6: 5.5}, 10.0: {6: 2.0}},
        )
        default = fit_parallel_model(1.2, 1.0, 0.02)
        assert relaxed.profile(100.0, 1.2, 6).speedup(6) > default.profile(
            100.0, 1.2, 6
        ).speedup(6)

    def test_empty_targets_rejected(self):
        with pytest.raises(CalibrationError):
            fit_parallel_model(1.0, 1.0, 0.02, targets={})
