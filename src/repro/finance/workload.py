"""The finance-server workload of Section 5.1.

Requests price Asian options; 10 % are long (9x the short service
demand — e.g. 9x the Monte Carlo paths), issued Poisson open-loop.
Request execution time is estimated from the iteration structure
(paths x steps), so predictions are near-perfect; execution is
parallelized fork-join per averaging iteration, whose per-iteration
synchronisation cost makes short requests parallelize worse than long
ones (see :func:`finance_profile`).

:class:`FinanceWorkload` implements the same protocol as
:class:`~repro.search.workload.SearchWorkload` (``make_requests``,
``speedup_book``, ``group_weights``), so the single-ISN experiment
runner drives both workloads unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import (
    AVERAGING_STEPS,
    FINANCE_DEMAND_NOISE,
    FINANCE_JOIN_OVERHEAD_MS,
    FINANCE_LONG_DEMAND_MULTIPLIER,
    FINANCE_LONG_FRACTION,
    FINANCE_MAX_PARALLELISM,
    FINANCE_PREDICTION_NOISE,
    FINANCE_SERIAL_FRACTION,
    FINANCE_SHORT_DEMAND_MS,
    FINANCE_SYNC_LOSS_PER_THREAD,
    MS_PER_PATH_STEP,
)
from ..core.speedup import SpeedupBook, SpeedupProfile
from ..errors import WorkloadError
from ..sim.request import Request

__all__ = ["FinanceWorkload", "build_finance_workload", "finance_profile"]


def finance_profile(demand_ms: float) -> SpeedupProfile:
    """Speedup profile of a fork-join Monte Carlo request.

    ``T_d = f*L + (1-f)*L/d + c*(d-1)*L/d^2-ish`` would be one choice;
    we use the mechanistic version: a serial fraction, near-linear
    parallel section with a per-thread synchronisation loss, plus a
    fork-join cost per averaging iteration and extra thread.  The
    iteration overhead is *absolute*, so short requests (fewer paths,
    same iteration count) parallelize visibly worse — the reason AP's
    parallelize-everything strategy wastes CPU on this server.
    """
    f = FINANCE_SERIAL_FRACTION
    speedups = [1.0]
    for d in range(2, FINANCE_MAX_PARALLELISM + 1):
        t_d = (
            f * demand_ms
            + (1.0 - f)
            * demand_ms
            / d
            * (1.0 + FINANCE_SYNC_LOSS_PER_THREAD * (d - 1))
            + AVERAGING_STEPS * FINANCE_JOIN_OVERHEAD_MS * (d - 1)
        )
        speedups.append(max(demand_ms / t_d, speedups[-1]))
    return SpeedupProfile(speedups)


@dataclass
class FinanceWorkload:
    """Bimodal option-pricing request generator."""

    speedup_book: SpeedupBook
    group_weights: tuple[float, ...]
    short_profile: SpeedupProfile
    long_profile: SpeedupProfile

    @property
    def short_paths(self) -> int:
        """Monte Carlo paths of a short request."""
        return int(
            round(FINANCE_SHORT_DEMAND_MS / (MS_PER_PATH_STEP * AVERAGING_STEPS))
        )

    @property
    def long_paths(self) -> int:
        """Monte Carlo paths of a long request."""
        return int(round(self.short_paths * FINANCE_LONG_DEMAND_MULTIPLIER))

    def structural_time_ms(self, n_paths: int) -> float:
        """The structural estimate: cost is linear in paths x steps."""
        return n_paths * AVERAGING_STEPS * MS_PER_PATH_STEP

    def make_requests(
        self,
        n: int,
        rng: np.random.Generator,
        prediction: str = "model",
        oracle_sigma: float = 0.0,
        rid_offset: int = 0,
    ) -> list[Request]:
        """Sample ``n`` requests (10 % long).

        ``prediction="model"`` uses the structural estimate perturbed
        by the (tiny) fixed estimation noise; ``"perfect"`` uses
        the true demand; ``"oracle"`` applies ``oracle_sigma`` noise.
        """
        if n < 1:
            raise WorkloadError(f"n must be >= 1, got {n}")
        if prediction not in ("model", "perfect", "oracle"):
            raise WorkloadError(f"unknown prediction mode {prediction!r}")
        is_long = rng.random(n) < FINANCE_LONG_FRACTION
        structural = np.where(
            is_long,
            self.structural_time_ms(self.long_paths),
            self.structural_time_ms(self.short_paths),
        )
        demands = structural * rng.lognormal(0.0, FINANCE_DEMAND_NOISE, size=n)
        if prediction == "perfect":
            predictions = demands.copy()
        elif prediction == "oracle":
            predictions = demands * rng.lognormal(0.0, oracle_sigma, size=n)
        else:
            predictions = structural * rng.lognormal(
                0.0, FINANCE_PREDICTION_NOISE, size=n
            )
        short, long_ = self.short_profile, self.long_profile
        return [
            Request(rid, demand, predicted, long_ if flag else short)
            for rid, demand, predicted, flag in zip(
                range(rid_offset, rid_offset + n),
                demands.tolist(),
                predictions.tolist(),
                is_long.tolist(),
            )
        ]


def build_finance_workload() -> FinanceWorkload:
    """Assemble the Section 5.1 workload.

    Short and long requests get distinct speedup profiles from the
    fork-join mechanism: the serial fraction and per-iteration join
    cost weigh proportionally more on short requests.
    """
    short_ms = FINANCE_SHORT_DEMAND_MS
    long_ms = short_ms * FINANCE_LONG_DEMAND_MULTIPLIER
    short_profile = finance_profile(short_ms)
    long_profile = finance_profile(long_ms)
    mid_profile = finance_profile((short_ms + long_ms) / 2.0)
    book = SpeedupBook([short_profile, mid_profile, long_profile])
    weights = [0.0, 0.0, 0.0]
    weights[book.group_of(short_ms)] += 1.0 - FINANCE_LONG_FRACTION
    weights[book.group_of(long_ms)] += FINANCE_LONG_FRACTION
    return FinanceWorkload(
        speedup_book=book,
        group_weights=tuple(weights),
        short_profile=short_profile,
        long_profile=long_profile,
    )
