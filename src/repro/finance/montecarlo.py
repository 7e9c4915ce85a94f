"""Monte Carlo pricer for Asian options.

Simulates geometric-Brownian-motion paths with antithetic variates and
discounts the average payoff.  Request processing "is CPU-bound, has a
regular structure, and consists of iterations" (Section 5.1): the work
is exactly ``paths x steps`` path-step updates, so sequential execution
time is an accurate linear function of the request structure — which is
why the finance predictor is near-perfect and dynamic correction never
fires there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .option import AsianOption

__all__ = ["PricingResult", "MonteCarloPricer"]


@dataclass(frozen=True)
class PricingResult:
    """Estimated option value and sampling error."""

    price: float
    std_error: float
    n_paths: int
    n_steps: int

    @property
    def path_steps(self) -> int:
        """Total path-step updates performed (the work metric)."""
        return self.n_paths * self.n_steps


class MonteCarloPricer:
    """Prices Asian options by simulating GBM paths."""

    def __init__(self, antithetic: bool = True) -> None:
        self.antithetic = antithetic

    def price(
        self,
        option: AsianOption,
        n_paths: int,
        n_steps: int,
        rng: np.random.Generator,
    ) -> PricingResult:
        """Estimate the option value with ``n_paths`` GBM paths.

        With antithetic variates enabled, half the paths are mirrored
        draws of the other half, halving variance for smooth payoffs.
        """
        if n_paths < 2 or n_steps < 1:
            raise ConfigError("need n_paths >= 2 and n_steps >= 1")
        dt = option.maturity_years / n_steps
        drift = (option.rate - 0.5 * option.volatility**2) * dt
        vol = option.volatility * np.sqrt(dt)

        half = n_paths // 2 if self.antithetic else n_paths
        normals = rng.standard_normal((half, n_steps))
        if self.antithetic:
            normals = np.vstack([normals, -normals])
        log_paths = np.cumsum(drift + vol * normals, axis=1)
        prices = option.spot * np.exp(log_paths)
        payoffs = option.payoff(prices.mean(axis=1))
        discount = np.exp(-option.rate * option.maturity_years)
        discounted = discount * payoffs
        if self.antithetic:
            # Antithetic pairs are negatively correlated; the unbiased
            # error estimate treats each (path, mirror) pair-average as
            # one independent sample.
            pair_means = (discounted[:half] + discounted[half:]) / 2.0
            std_error = float(pair_means.std(ddof=1) / np.sqrt(half))
        else:
            std_error = float(
                discounted.std(ddof=1) / np.sqrt(len(discounted))
            )
        return PricingResult(
            price=float(discounted.mean()),
            std_error=std_error,
            n_paths=len(discounted),
            n_steps=n_steps,
        )

    def calibrate_ms_per_path_step(
        self,
        option: AsianOption | None = None,
        n_paths: int = 20_000,
        n_steps: int = 100,
        repeats: int = 3,
    ) -> float:
        """Measure wall-clock cost per path-step of the real pricer.

        Demonstrates how the structural cost model's constant would be
        obtained on a deployment machine; deterministic experiments use
        the fixed constant in :class:`~repro.finance.workload.FinanceWorkload`
        instead so results do not depend on host speed.
        """
        opt = option if option is not None else AsianOption()
        rng = np.random.default_rng(0)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            self.price(opt, n_paths, n_steps, rng)
            best = min(best, time.perf_counter() - start)
        return best * 1000.0 / (n_paths * n_steps)
