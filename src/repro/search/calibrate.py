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

from ..config import TARGET_MEAN_MS
from ..errors import CalibrationError
from ..sim.metrics import DistributionStats, distribution_stats

__all__ = ["CalibrationResult", "calibrate_workload"]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of workload calibration."""

    ms_per_unit: float
    statistics: DistributionStats


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
    return CalibrationResult(
        ms_per_unit=scale, statistics=distribution_stats(units * scale)
    )
