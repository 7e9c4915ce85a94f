"""Task-pool parallel execution model -> per-query speedup profiles.

The paper parallelizes a query by partitioning its index work into a
pool of tasks executed by ``d`` worker threads [20], with three
overhead sources it measures but does not decompose (Section 2.4):

* a **serial phase** (query parsing, top-k rescoring) that no thread
  count accelerates;
* **speculative/wasted work**: a sequential run stops scanning as soon
  as the top-k stabilises, while parallel threads speculatively process
  chunks that hindsight proves unnecessary.  Short queries terminate
  early more often, so their relative waste is larger — modelled as a
  waste fraction ``w(L) = a / (1 + L / b)`` per extra thread;
* **load imbalance**: with ``n`` equal-grain tasks, ``d`` workers need
  ``ceil(n/d)`` rounds, which bites when ``n`` is small, and every
  round pays the per-task overhead ``o``.

``T_d = serial + ceil(n/d) * o + ceil(n/d)/n * parallel * (1 + w(L)(d-1))``
and ``S_d = L / T_d`` (clamped monotone, ``S_1 = 1``).

The two free parameters ``(a, b)`` are fitted once against the
published Figure 2 curves by :func:`fit_parallel_model`; everything
else (serial work, task grain, task overhead) comes from the workload
configuration.  The fit is a projected Levenberg–Marquardt iteration
in numpy, run until a stated convergence criterion holds, so the
fitted values depend on this code alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.speedup import SpeedupProfile
from ..errors import CalibrationError

__all__ = [
    "ParallelExecutionModel",
    "fit_parallel_model",
    "FIGURE2_TARGETS",
]

#: Published Figure 2 speedups we fit the mechanism to:
#: {representative sequential time (ms): {degree: speedup}}.
#: Long queries (mean 168 ms) reach ~4.1x on 6 threads, mid ~2.05x,
#: short ~1.16x.
FIGURE2_TARGETS: dict[float, dict[int, float]] = {
    168.0: {2: 1.8, 3: 2.5, 4: 3.2, 5: 3.7, 6: 4.1},
    50.0: {2: 1.4, 3: 1.6, 4: 1.8, 5: 1.95, 6: 2.05},
    8.0: {2: 1.05, 3: 1.09, 4: 1.12, 5: 1.14, 6: 1.16},
}


#: Box bounds and starting point of the fitted ``(a, b)``: the waste
#: amplitude and its half-life (ms).
_LOWER = np.array([0.0, 1.0])
_UPPER = np.array([10.0, 500.0])
_START = np.array([1.0, 20.0])

#: Convergence criterion of :func:`fit_parallel_model`: the infinity
#: norm of the projected gradient ``x - clip(x - grad, lower, upper)``
#: of the cost ``0.5 * sum(residual**2)`` is at most this.  It is zero
#: exactly at a first-order optimum of the bounded problem; the
#: gradient itself is accurate to ~1e-15 here.
_GRADIENT_TOL = 1e-10

#: The cost is only resolved to ~1e-14 of its value (the residuals'
#: rounding).  A step whose predicted decrease is below this fraction
#: of the cost is judged by the projected gradient instead.
_COST_RESOLUTION = 1e-12

_MAX_ITERATIONS = 200
_MAX_DAMPING = 1e16


def _pool_terms(
    total_ms: float,
    serial_ms: float,
    degree: int,
    task_grain_ms: float,
    task_overhead_ms: float,
) -> tuple[float, float]:
    """Split ``T_d`` into ``fixed + scaled * (1 + w(L) * (degree - 1))``.

    ``fixed`` is the serial phase plus the per-round task overhead, and
    ``scaled`` the parallel work's makespan before waste.  A request
    that runs on one thread, or has no parallel work, is ``(L, 0)``.
    """
    if total_ms <= 0:
        raise CalibrationError(f"total_ms must be > 0, got {total_ms}")
    serial_ms = min(serial_ms, total_ms)
    parallel_ms = total_ms - serial_ms
    if degree <= 1 or parallel_ms <= 0:
        return total_ms, 0.0
    n_tasks = max(1, math.ceil(parallel_ms / task_grain_ms))
    rounds = math.ceil(n_tasks / degree)
    return (
        serial_ms + rounds * task_overhead_ms,
        (rounds / n_tasks) * parallel_ms,
    )


@dataclass(frozen=True)
class ParallelExecutionModel:
    """Fitted task-pool execution model (parameters in milliseconds)."""

    waste_amplitude: float
    waste_halflife_ms: float
    task_grain_ms: float
    task_overhead_ms: float

    def waste_fraction(self, total_ms: np.ndarray | float) -> np.ndarray | float:
        """Per-extra-thread speculative-waste fraction ``w(L)`` (element-wise)."""
        return self.waste_amplitude / (1.0 + total_ms / self.waste_halflife_ms)

    def profile(
        self, total_ms: float, serial_ms: float, max_degree: int
    ) -> SpeedupProfile:
        """Per-query speedup profile ``{S_1..S_P}`` (see :meth:`speedups`)."""
        return SpeedupProfile(
            self.speedups(np.array([total_ms]), serial_ms, max_degree)[0].tolist()
        )

    def speedups(
        self, demands_ms: np.ndarray, serial_ms: float, max_degree: int
    ) -> np.ndarray:
        """Speedups ``{S_1..S_P}`` per sequential demand, one row each.

        ``S_d = L / T_d`` with ``T_d`` as in the module docstring,
        clamped monotone non-decreasing: a scheduler never *loses* by
        holding extra threads idle, so ``S_d >= S_{d-1}`` effectively.
        Every demand's terms are computed element-wise in the operation
        order of the scalar split :func:`_pool_terms` that
        :class:`_WasteFit` fits, so each row is the scalar formula's bit
        for bit (the task counts are whole floats, exact like the
        integers they stand for).
        """
        total = np.asarray(demands_ms, dtype=np.float64)
        if (total <= 0).any():
            raise CalibrationError(
                f"total_ms must be > 0, got {total[total <= 0][0]}"
            )
        serial = np.minimum(serial_ms, total)
        parallel = total - serial
        n_tasks = np.maximum(1.0, np.ceil(parallel / self.task_grain_ms))
        waste = self.waste_fraction(total)
        speedups = np.ones((len(total), max_degree))
        for degree in range(2, max_degree + 1):
            rounds = np.ceil(n_tasks / degree)
            fixed = serial + rounds * self.task_overhead_ms
            scaled = (rounds / n_tasks) * parallel
            time = fixed + scaled * (1.0 + waste * (degree - 1))
            # A request with no parallel work takes ``L`` at any degree.
            time = np.where(parallel > 0, time, total)
            np.maximum(
                total / time, speedups[:, degree - 2], out=speedups[:, degree - 1]
            )
        return speedups


class _WasteFit:
    """The fit's cost ``0.5 * sum(r**2)``, ``r = L / T_d(a, b) - target``.

    Holds each target point's :func:`_pool_terms`, which do not depend
    on ``(a, b)``.  ``T_d`` is evaluated exactly as
    :meth:`ParallelExecutionModel.speedups` does, so the residuals of a
    fitted model are the ones this class minimised.  Sums use
    ``math.fsum`` (exactly rounded), so no BLAS summation order reaches
    the fitted values.
    """

    def __init__(
        self,
        points: list[tuple[float, int, float]],
        serial_ms: float,
        task_grain_ms: float,
        task_overhead_ms: float,
    ) -> None:
        self.load = np.array([load for load, _, _ in points])
        self.extra = np.array([degree - 1.0 for _, degree, _ in points])
        self.target = np.array([target for _, _, target in points])
        terms = np.array(
            [
                _pool_terms(load, serial_ms, degree, task_grain_ms, task_overhead_ms)
                for load, degree, _ in points
            ]
        )
        self.fixed = terms[:, 0]
        self.scaled = terms[:, 1]

    def derivatives(
        self, x: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Cost, gradient, Hessian and ``diag(JᵀJ)`` at ``x = (a, b)``.

        The Hessian is exact: ``JᵀJ`` plus each residual's own
        curvature, which matters here because the Figure 2 residuals
        are not small (a Gauss–Newton ``JᵀJ`` alone converges only
        linearly on them).
        """
        load = self.load
        a, b = float(x[0]), float(x[1])
        shrink = 1.0 + load / b
        work = self.scaled * self.extra
        time = self.fixed + self.scaled * (1.0 + a / shrink * self.extra)
        r = load / time - self.target
        # w = a / (1 + L/b) and its derivatives in a and b.
        span = b + load
        w_a = 1.0 / shrink
        w_b = a * load / (span * span)
        w_ab = load / (span * span)
        w_bb = -2.0 * w_b / span
        # r(T) = L / T - target, with T linear in w.
        r_t = -load / (time * time)
        r_tt = -2.0 * r_t / time
        t_a, t_b = work * w_a, work * w_b
        j_a, j_b = r_t * t_a, r_t * t_b
        fsum = math.fsum
        gn = np.array(
            [
                [fsum(j_a * j_a), fsum(j_a * j_b)],
                [fsum(j_a * j_b), fsum(j_b * j_b)],
            ]
        )
        r_ab = fsum(r * (r_tt * t_a * t_b + r_t * work * w_ab))
        curvature = np.array(
            [
                [fsum(r * r_tt * t_a * t_a), r_ab],
                [r_ab, fsum(r * (r_tt * t_b * t_b + r_t * work * w_bb))],
            ]
        )
        grad = np.array([fsum(j_a * r), fsum(j_b * r)])
        return 0.5 * fsum(r * r), grad, gn + curvature, np.diag(gn).copy()


def _projected_gradient(x: np.ndarray, grad: np.ndarray) -> float:
    """``max |x - clip(x - grad, lower, upper)|``: 0 exactly at a bounded optimum."""
    return float(np.max(np.abs(x - np.clip(x - grad, _LOWER, _UPPER))))


def _solve_2x2(m: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """``m⁻¹ v`` for a symmetric 2x2 ``m``; None unless positive definite."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if not (m[0, 0] > 0 and det > 0):
        return None
    return np.array(
        [
            (m[1, 1] * v[0] - m[0, 1] * v[1]) / det,
            (m[0, 0] * v[1] - m[1, 0] * v[0]) / det,
        ]
    )


def _minimise(fit: _WasteFit) -> np.ndarray:
    """Projected Levenberg–Marquardt over the box ``[_LOWER, _UPPER]``.

    Each iteration fixes the parameters held at a bound by the gradient
    (Bertsekas's projected-Newton active set), solves the damped system
    ``(H + λ D) s = -g`` over the free ones, with ``D`` the running
    maximum of ``diag(JᵀJ)`` (Moré's scaling), and projects ``x + s``
    back onto the box.  A step is taken if it lowers the cost; once the
    predicted decrease is below the cost's rounding error it is taken if
    it lowers the projected gradient.  λ shrinks tenfold after a step
    and grows tenfold (from at least 1e-3) until one is found.

    Converged means :func:`_projected_gradient` ``<= _GRADIENT_TOL``;
    anything else raises :class:`CalibrationError`.
    """
    x = _START.copy()
    cost, grad, hess, gn_diag = fit.derivatives(x)
    scale = gn_diag
    damping = 1e-3
    for _ in range(_MAX_ITERATIONS):
        pg = _projected_gradient(x, grad)
        if pg <= _GRADIENT_TOL:
            return x
        held = ((x <= _LOWER) & (grad > 0)) | ((x >= _UPPER) & (grad < 0))
        scale = np.maximum(scale, gn_diag)
        while True:
            m = hess + damping * np.diag(scale)
            m[held, :] = 0.0
            m[:, held] = 0.0
            m[held, held] = 1.0
            step = _solve_2x2(m, np.where(held, 0.0, -grad))
            if step is not None:
                trial = np.clip(x + step, _LOWER, _UPPER)
                state = fit.derivatives(trial)
                moved = trial - x
                curvature = math.fsum((hess * np.outer(moved, moved)).ravel())
                predicted = -(math.fsum(grad * moved) + 0.5 * curvature)
                if predicted <= _COST_RESOLUTION * cost:
                    better = _projected_gradient(trial, state[1]) < pg
                else:
                    better = state[0] < cost
                if better:
                    x = trial
                    cost, grad, hess, gn_diag = state
                    damping *= 0.1
                    break
            damping = max(damping * 10.0, 1e-3)
            if damping > _MAX_DAMPING:
                raise CalibrationError(
                    f"parallel-model fit stalled at projected gradient {pg:.3g}"
                )
    raise CalibrationError(
        f"parallel-model fit did not converge in {_MAX_ITERATIONS} iterations"
    )


def fit_parallel_model(
    serial_ms: float,
    task_grain_ms: float,
    task_overhead_ms: float,
) -> ParallelExecutionModel:
    """Fit ``(a, b)`` so the model reproduces Figure 2.

    Parameters
    ----------
    serial_ms:
        Representative serial work per query (parse + rescore).
    task_grain_ms / task_overhead_ms:
        Task-pool granularity, taken from the workload configuration.

    Minimises ``0.5 * sum((S_d - target)**2)`` over
    ``0 <= a <= 10``, ``1 <= b <= 500`` until the projected gradient is
    at most ``1e-10`` (see :func:`_minimise`), and returns the fitted
    :class:`ParallelExecutionModel`.
    """
    points = [
        (load_ms, degree, speedup)
        for load_ms, curve in FIGURE2_TARGETS.items()
        for degree, speedup in curve.items()
    ]
    fit = _WasteFit(points, serial_ms, task_grain_ms, task_overhead_ms)
    a, b = (float(v) for v in _minimise(fit))
    return ParallelExecutionModel(
        waste_amplitude=a,
        waste_halflife_ms=b,
        task_grain_ms=task_grain_ms,
        task_overhead_ms=task_overhead_ms,
    )
