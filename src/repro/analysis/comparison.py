"""Policy-comparison helper over latency sweeps.

Turns two ``[latency per load]`` series into one of the paper's
evaluation claims: how often one policy dominates another across the
load range.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SimulationError

__all__ = ["dominance_fraction"]


def dominance_fraction(
    series_a: Sequence[float],
    series_b: Sequence[float],
    tolerance: float = 0.0,
) -> float:
    """Fraction of loads where A is at least as good as B.

    ``tolerance`` allows B to exceed A by a relative slack before the
    point counts against A (absorbs percentile sampling noise).
    """
    if len(series_a) != len(series_b) or not series_a:
        raise SimulationError("series must be non-empty and aligned")
    wins = sum(
        1
        for a, b in zip(series_a, series_b)
        if a <= b * (1.0 + tolerance)
    )
    return wins / len(series_a)
