"""Time-varying arrival processes.

Production load is not stationary — Section 3.3 motivates the target
table precisely because "instantaneous load on a server varies over
time".  This module generates non-homogeneous Poisson arrivals from a
piecewise-constant rate profile (e.g. a diurnal pattern), used by the
load-drift experiments that evaluate periodic target-table
recomputation (a future-work item the paper sketches in Section 3.3,
remark 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError

__all__ = ["RateProfile", "nonhomogeneous_arrival_times"]


@dataclass(frozen=True)
class RateProfile:
    """Piecewise-constant arrival-rate profile.

    ``rates_qps[i]`` applies for ``segment_ms`` starting at
    ``i * segment_ms``; the profile repeats cyclically.
    """

    rates_qps: tuple[float, ...]
    segment_ms: float

    def __post_init__(self) -> None:
        if not self.rates_qps:
            raise WorkloadError("profile needs at least one rate")
        if any(r <= 0 for r in self.rates_qps):
            raise WorkloadError("rates must be positive")
        if self.segment_ms <= 0:
            raise WorkloadError("segment_ms must be positive")

    def rate_at(self, time_ms: float) -> float:
        """Arrival rate (QPS) at an absolute simulated time."""
        if time_ms < 0:
            raise WorkloadError("time must be >= 0")
        cycle = self.segment_ms * len(self.rates_qps)
        index = int((time_ms % cycle) // self.segment_ms)
        return self.rates_qps[index]

    @property
    def peak_qps(self) -> float:
        """The maximum rate of the profile."""
        return max(self.rates_qps)



def nonhomogeneous_arrival_times(
    n: int, profile: RateProfile, rng: np.random.Generator
) -> np.ndarray:
    """``n`` arrival times (ms) of a non-homogeneous Poisson process.

    Uses thinning against the profile's peak rate: candidate arrivals
    are drawn at the peak rate and accepted with probability
    ``rate(t) / peak`` — exact for piecewise-constant profiles.
    """
    if n < 1:
        raise WorkloadError("n must be >= 1")
    peak = profile.peak_qps
    times = np.empty(n)
    t = 0.0
    produced = 0
    mean_gap_ms = 1000.0 / peak
    while produced < n:
        t += rng.exponential(mean_gap_ms)
        if rng.random() < profile.rate_at(t) / peak:
            times[produced] = t
            produced += 1
    return times
