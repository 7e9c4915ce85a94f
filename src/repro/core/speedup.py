"""Parallelism-efficiency model: speedup profiles and demand groups.

The paper models a request's parallelization efficiency with a *speedup
profile* ``{S_i | i = 1..P}`` mapping parallelism degree ``i`` to
speedup ``S_i`` (Section 3.1).  Because per-request speedup is hard to
predict, requests are classified into groups by sequential execution
time — short (<30 ms), mid (30-80 ms), long (>80 ms) in Figure 2 — and
the average profile of the group is used for scheduling decisions.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from ..config import DEFAULT_GROUP_BOUNDS_MS, validate_group_bounds
from ..errors import ConfigError

__all__ = ["SpeedupProfile", "SpeedupBook", "demand_group"]


class SpeedupProfile:
    """Immutable map from parallelism degree to speedup.

    ``profile[i]`` (1-based degree) returns ``S_i``.  Profiles must
    start at ``S_1 = 1`` and be non-decreasing: adding threads never
    slows a request down in the model (overheads are folded into the
    diminishing returns of the curve, as the paper measures in Fig. 2).
    """

    __slots__ = ("_speedups",)

    def __init__(self, speedups: Sequence[float]) -> None:
        values = tuple(float(s) for s in speedups)
        if not values:
            raise ConfigError("speedup profile must have at least degree 1")
        if abs(values[0] - 1.0) > 1e-9:
            raise ConfigError(f"S_1 must equal 1.0, got {values[0]}")
        for a, b in zip(values, values[1:]):
            if b < a - 1e-9:
                raise ConfigError(f"speedups must be non-decreasing: {values}")
        if any(s > len(values) * 4.0 for s in values):
            raise ConfigError(f"implausible super-linear profile: {values}")
        self._speedups = values

    @property
    def max_degree(self) -> int:
        """The maximum parallelism degree ``P`` this profile covers."""
        return len(self._speedups)

    @property
    def speedups(self) -> tuple[float, ...]:
        """The raw ``(S_1, ..., S_P)`` tuple."""
        return self._speedups

    def __getitem__(self, degree: int) -> float:
        if not 1 <= degree <= len(self._speedups):
            raise IndexError(
                f"degree {degree} outside [1, {len(self._speedups)}]"
            )
        return self._speedups[degree - 1]

    def speedup(self, degree: int) -> float:
        """Speedup at ``degree``; degrees above ``P`` saturate at ``S_P``."""
        if degree < 1:
            raise IndexError(f"degree must be >= 1, got {degree}")
        return self._speedups[min(degree, len(self._speedups)) - 1]

    def efficiency(self, degree: int) -> float:
        """Parallel efficiency ``S_i / i`` at the given degree."""
        return self.speedup(degree) / degree

    def truncated(self, max_degree: int) -> "SpeedupProfile":
        """A copy limited to ``max_degree`` entries."""
        if max_degree < 1:
            raise ConfigError("max_degree must be >= 1")
        return SpeedupProfile(self._speedups[:max_degree])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpeedupProfile) and self._speedups == other._speedups
        )

    def __hash__(self) -> int:
        return hash(self._speedups)

    def __repr__(self) -> str:
        body = ", ".join(f"{s:.2f}" for s in self._speedups)
        return f"SpeedupProfile([{body}])"


def demand_group(
    demand_ms: float, bounds_ms: Sequence[float] = DEFAULT_GROUP_BOUNDS_MS
) -> int:
    """Group index of a sequential demand: 0 = short, ..., len(bounds) = longest."""
    return bisect_right(bounds_ms, demand_ms)


class SpeedupBook:
    """Per-group speedup profiles keyed by (predicted) sequential time.

    This is the lookup structure of Section 3.1: given a request's
    predicted sequential execution time, find its demand group and
    return that group's average speedup profile.
    """

    def __init__(
        self,
        profiles: Sequence[SpeedupProfile],
        bounds_ms: Sequence[float] = DEFAULT_GROUP_BOUNDS_MS,
    ) -> None:
        self._bounds = validate_group_bounds(bounds_ms)
        if len(profiles) != len(self._bounds) + 1:
            raise ConfigError(
                f"need {len(self._bounds) + 1} profiles for "
                f"{len(self._bounds)} bounds, got {len(profiles)}"
            )
        degrees = {p.max_degree for p in profiles}
        if len(degrees) != 1:
            raise ConfigError("all group profiles must share max_degree")
        self._profiles = tuple(profiles)

    @property
    def bounds_ms(self) -> tuple[float, ...]:
        """Ascending group boundaries in milliseconds."""
        return self._bounds

    @property
    def num_groups(self) -> int:
        """Number of parallelism-efficiency groups (paper default: 3)."""
        return len(self._profiles)

    @property
    def max_degree(self) -> int:
        """Maximum parallelism degree covered by every profile."""
        return self._profiles[0].max_degree

    @property
    def profiles(self) -> tuple[SpeedupProfile, ...]:
        """Profiles ordered from the shortest to the longest group."""
        return self._profiles

    def group_of(self, demand_ms: float) -> int:
        """Group index for a (predicted) sequential demand."""
        return demand_group(demand_ms, self._bounds)

    def profile_of_group(self, group: int) -> SpeedupProfile:
        """Profile by explicit group index."""
        return self._profiles[group]

    @classmethod
    def from_samples(
        cls,
        demands_ms: Iterable[float],
        per_request_profiles: Iterable[SpeedupProfile],
        bounds_ms: Sequence[float] = DEFAULT_GROUP_BOUNDS_MS,
        max_degree: int | None = None,
    ) -> "SpeedupBook":
        """Average measured per-request profiles within each demand group.

        This is how the paper obtains Figure 2: execute a query log,
        classify queries by sequential time, and average the measured
        speedups per degree inside each class.
        """
        bounds = validate_group_bounds(bounds_ms)
        demands = list(demands_ms)
        profiles = list(per_request_profiles)
        if len(demands) != len(profiles):
            raise ConfigError("demands and profiles must align")
        if not demands:
            raise ConfigError("cannot build a SpeedupBook from zero samples")
        degree = max_degree or profiles[0].max_degree
        sums = np.zeros((len(bounds) + 1, degree))
        counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        for demand, profile in zip(demands, profiles):
            g = demand_group(demand, bounds)
            sums[g] += [profile.speedup(d) for d in range(1, degree + 1)]
            counts[g] += 1
        group_profiles: list[SpeedupProfile] = []
        for g in range(len(bounds) + 1):
            if counts[g] == 0:
                # An empty group inherits its shorter neighbour's profile
                # (conservative: shorter groups parallelize worse).
                inherited = (
                    group_profiles[-1]
                    if group_profiles
                    else SpeedupProfile([1.0] * degree)
                )
                group_profiles.append(inherited)
                continue
            mean = sums[g] / counts[g]
            mean[0] = 1.0
            mean = np.maximum.accumulate(mean)  # enforce monotonicity
            group_profiles.append(SpeedupProfile(mean.tolist()))
        return cls(group_profiles, bounds)

    def __repr__(self) -> str:
        return (
            f"SpeedupBook(groups={self.num_groups}, bounds={self._bounds}, "
            f"max_degree={self.max_degree})"
        )
