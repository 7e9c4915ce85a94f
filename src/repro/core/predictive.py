"""Predictive parallelism: minimal degree to meet the target (Section 3.1).

Given the predicted sequential execution time ``L``, the request's
speedup profile ``{S_i}`` and the target completion time ``E``, TPC
selects ``d = argmin_{1<=i<=P} {T_i | T_i <= E}`` with ``T_i = L / S_i``
— the smallest degree whose estimated execution time meets the target.
Spending more threads to finish *earlier* than E buys nothing for the
tail and starves other requests, so the minimum is always preferred.
"""

from __future__ import annotations

from .speedup import SpeedupProfile

__all__ = ["select_degree"]


def select_degree(
    predicted_ms: float,
    target_ms: float,
    profile: SpeedupProfile,
    max_degree: int | None = None,
) -> int:
    """Smallest degree meeting the target, or the maximum if none does.

    Parameters
    ----------
    predicted_ms:
        Predicted sequential execution time ``L``.
    target_ms:
        Target completion time ``E`` from the target table.
    profile:
        Group speedup profile retrieved via the predicted time.
    max_degree:
        Optional cap ``P`` (defaults to the profile's max degree).

    Returns
    -------
    The chosen degree ``d``.  When even the maximum degree cannot meet
    ``E`` (a predicted-very-long request under a tight target), the
    maximum degree is used: the request will miss the target either
    way, and the most parallelism gives it the best finish time.
    """
    speedups = profile.speedups
    limit = len(speedups) if max_degree is None else min(
        max_degree, len(speedups)
    )
    if limit < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    if predicted_ms <= target_ms:
        return 1
    for degree in range(2, limit + 1):
        # T_i = L / S_i, the estimated execution time at degree i.
        if predicted_ms / speedups[degree - 1] <= target_ms:
            return degree
    return limit
