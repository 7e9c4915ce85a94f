"""Tests for the task-pool parallel-execution model (Figure 2)."""

import math
import time

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.search.parallel import (
    _GRADIENT_TOL,
    FIGURE2_TARGETS,
    ParallelExecutionModel,
    _minimise,
    _pool_terms,
    _projected_gradient,
    _WasteFit,
    fit_parallel_model,
)

#: A target set whose optimum holds the waste half-life at its lower
#: bound (1 ms), so the fit's active set is exercised.
RELAXED_TARGETS = {100.0: {6: 5.5}, 10.0: {6: 2.0}}

#: ``L / T_d - target`` of the 15 Figure 2 points for the ``fitted``
#: model, in FIGURE2_TARGETS order, and their cost ``0.5 * sum(r**2)``.
FIGURE2_RESIDUALS = [
    -0.03114427651158347,
    -0.07164394842529376,
    -0.2152213836548631,
    -0.27917958338250726,
    -0.22801134938490764,
    0.11028470192688222,
    0.23002633417425322,
    0.2358294543902597,
    0.34646497418934596,
    0.21671510358162438,
    -0.008618971049315194,
    -0.08356815535006601,
    0.029847310169816454,
    -0.16624769141786777,
    -0.3155692409342259,
]
FIGURE2_COST = 0.302609141162674


def waste_fit(targets, serial_ms=1.2, task_grain_ms=1.0, task_overhead_ms=0.02):
    points = [(load, d, s) for load, curve in targets.items() for d, s in curve.items()]
    return _WasteFit(points, serial_ms, task_grain_ms, task_overhead_ms)


def fitted_x(model):
    return np.array([model.waste_amplitude, model.waste_halflife_ms])


def fit_targets(targets, serial_ms=1.2, task_grain_ms=1.0, task_overhead_ms=0.02):
    """The model :func:`fit_parallel_model` would fit to other targets."""
    fit = waste_fit(targets, serial_ms, task_grain_ms, task_overhead_ms)
    a, b = (float(v) for v in _minimise(fit))
    return ParallelExecutionModel(a, b, task_grain_ms, task_overhead_ms)


def parallel_time(model, total_ms, serial_ms, degree):
    """Wall-clock time ``T_d`` of one request at ``degree`` (scalar)."""
    fixed, scaled = _pool_terms(
        total_ms, serial_ms, degree, model.task_grain_ms, model.task_overhead_ms
    )
    return fixed + scaled * (1.0 + model.waste_fraction(total_ms) * (degree - 1))


@pytest.fixture(scope="module")
def fitted():
    return fit_parallel_model(
        serial_ms=1.2, task_grain_ms=1.0, task_overhead_ms=0.02
    )


class TestModelMechanics:
    def test_degree_one_time_equals_total(self, fitted):
        assert parallel_time(fitted, 50.0, 1.2, 1) == 50.0

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
            fitted.profile(0.0, 1.0, 2)


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
        # Figure 2's optimum lies inside the box, off every bound.
        assert 0 < fitted.waste_amplitude < 10
        assert 1 < fitted.waste_halflife_ms < 500

    def test_custom_targets_shift_fit(self):
        relaxed = fit_targets(RELAXED_TARGETS)
        default = fit_parallel_model(1.2, 1.0, 0.02)
        assert fit_targets(FIGURE2_TARGETS) == default
        assert relaxed.profile(100.0, 1.2, 6).speedup(6) > default.profile(
            100.0, 1.2, 6
        ).speedup(6)

    def test_relaxed_targets_hold_halflife_at_its_bound(self):
        relaxed = fit_targets(RELAXED_TARGETS)
        assert relaxed.waste_halflife_ms == 1.0
        assert 0 < relaxed.waste_amplitude < 10


class TestFitConvergence:
    """The fit stops on its stated criterion, and its optimum is pinned."""

    @pytest.mark.parametrize(
        "targets", [FIGURE2_TARGETS, RELAXED_TARGETS], ids=["figure2", "relaxed"]
    )
    def test_projected_gradient_below_tolerance(self, targets):
        model = fit_targets(targets)
        _, grad, _, _ = waste_fit(targets).derivatives(fitted_x(model))
        assert _projected_gradient(fitted_x(model), grad) <= _GRADIENT_TOL

    def test_derivatives_match_central_differences(self, fitted):
        # The criterion is only as good as the analytic gradient and
        # Hessian behind it.
        fit = waste_fit(FIGURE2_TARGETS)
        x = fitted_x(fitted) * np.array([1.1, 0.9])
        _, grad, hess, _ = fit.derivatives(x)
        for i, h in enumerate((1e-6, 1e-5)):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            c_up, g_up, _, _ = fit.derivatives(up)
            c_down, g_down, _, _ = fit.derivatives(down)
            assert grad[i] == pytest.approx((c_up - c_down) / (2 * h), rel=1e-6)
            np.testing.assert_allclose(
                hess[:, i], (g_up - g_down) / (2 * h), rtol=1e-6
            )

    def test_figure2_residuals_and_cost_pinned(self, fitted):
        residuals = [
            load_ms / parallel_time(fitted, load_ms, 1.2, degree) - target
            for load_ms, curve in FIGURE2_TARGETS.items()
            for degree, target in curve.items()
        ]
        assert residuals == pytest.approx(FIGURE2_RESIDUALS, rel=1e-9)
        cost = 0.5 * math.fsum(r * r for r in residuals)
        assert cost == pytest.approx(FIGURE2_COST, rel=1e-9)

    def test_fit_is_fast(self):
        # One fit per workload build; the best of five runs, so a busy
        # host does not fail it.
        times = []
        for _ in range(5):
            start = time.perf_counter()
            fit_parallel_model(1.2, 1.0, 0.02)
            times.append(time.perf_counter() - start)
        assert min(times) <= 0.020
