"""Work-unit -> millisecond calibration against the paper's statistics.

Section 2 publishes the demand distribution of the production workload:
mean service demand 13.47 ms, more than 85 % of queries under 15 ms,
~4 % of queries over 80 ms, and a 99th-percentile demand near 200 ms
(15x the mean; 56x the median).  The synthetic workload reproduces the
*shape* through its query mixture; this module fixes the single free
unit — milliseconds per work unit — by matching the mean, and reports
the full achieved statistics so EXPERIMENTS.md can record them against
the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import LONG_QUERY_MS, SHORT_QUERY_MS, TARGET_MEAN_MS
from ..errors import CalibrationError

__all__ = ["CalibrationResult", "calibrate_workload", "workload_statistics"]


@dataclass(frozen=True)
class WorkloadStatistics:
    """Demand-distribution statistics in the paper's terms."""

    mean_ms: float
    median_ms: float
    p99_ms: float
    max_ms: float
    short_fraction: float
    long_fraction: float
    p99_over_mean: float
    p99_over_median: float

    def as_row(self) -> dict[str, float]:
        """Flat dict for tabular reports."""
        return {
            "mean_ms": self.mean_ms,
            "median_ms": self.median_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
            "short_fraction(<15ms)": self.short_fraction,
            "long_fraction(>80ms)": self.long_fraction,
            "p99/mean": self.p99_over_mean,
            "p99/median": self.p99_over_median,
        }


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of workload calibration."""

    ms_per_unit: float
    statistics: WorkloadStatistics


def workload_statistics(demands_ms: np.ndarray) -> WorkloadStatistics:
    """Compute the paper's Section 2 statistics for a demand sample."""
    arr = np.asarray(demands_ms, dtype=np.float64)
    if arr.size == 0:
        raise CalibrationError("empty demand sample")
    mean = float(arr.mean())
    median = float(np.median(arr))
    p99 = float(np.percentile(arr, 99))
    return WorkloadStatistics(
        mean_ms=mean,
        median_ms=median,
        p99_ms=p99,
        max_ms=float(arr.max()),
        short_fraction=float((arr < SHORT_QUERY_MS).mean()),
        long_fraction=float((arr > LONG_QUERY_MS).mean()),
        p99_over_mean=p99 / mean if mean > 0 else float("inf"),
        p99_over_median=p99 / median if median > 0 else float("inf"),
    )


def calibrate_workload(total_units: np.ndarray) -> CalibrationResult:
    """Fix the ms-per-work-unit scale by matching the mean demand.

    The mean is the most robust anchor (the paper quotes it to two
    decimals); the rest of the distribution shape comes from the query
    mixture itself and is reported, not forced.
    """
    units = np.asarray(total_units, dtype=np.float64)
    if units.size == 0:
        raise CalibrationError("no executions to calibrate against")
    if units.min() <= 0:
        raise CalibrationError("work units must be positive")
    scale = TARGET_MEAN_MS / float(units.mean())
    stats = workload_statistics(units * scale)
    return CalibrationResult(ms_per_unit=scale, statistics=stats)
