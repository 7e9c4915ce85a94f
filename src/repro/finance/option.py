"""Asian option contract model.

An (arithmetic-average, fixed-strike) Asian option's payoff depends on
the mean of the underlying price over the averaging dates, which makes
it path-dependent: pricing requires simulating whole price paths, the
CPU-bound workload of the paper's finance server.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = ["AsianOption"]


@dataclass(frozen=True)
class AsianOption:
    """An arithmetic-average Asian option under Black-Scholes dynamics.

    Parameters
    ----------
    spot:
        Current underlying price ``S_0``.
    strike:
        Strike ``K`` applied to the path average.
    maturity_years:
        Time to expiry ``T`` in years.
    rate:
        Continuously compounded risk-free rate ``r``.
    volatility:
        Lognormal volatility ``sigma``.
    is_call:
        Call pays ``max(avg - K, 0)``; put pays ``max(K - avg, 0)``.
    """

    spot: float = 100.0
    strike: float = 100.0
    maturity_years: float = 1.0
    rate: float = 0.03
    volatility: float = 0.25
    is_call: bool = True

    def __post_init__(self) -> None:
        if self.spot <= 0 or self.strike <= 0:
            raise ConfigError("spot and strike must be positive")
        if self.maturity_years <= 0:
            raise ConfigError("maturity must be positive")
        if self.volatility <= 0:
            raise ConfigError("volatility must be positive")

    def payoff(self, path_averages: np.ndarray | float) -> np.ndarray:
        """Payoffs for realised path averages (element-wise)."""
        if self.is_call:
            return np.maximum(path_averages - self.strike, 0.0)
        return np.maximum(self.strike - path_averages, 0.0)
