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

from ..config import FinanceConfig
from ..core.speedup import SpeedupBook, SpeedupProfile
from ..errors import WorkloadError
from ..sim.request import Request

__all__ = ["FinanceWorkload", "build_finance_workload", "finance_profile"]

#: Fixed structural-cost constant: milliseconds per path-step update.
#: (A deployment would measure this once with
#: ``MonteCarloPricer.calibrate_ms_per_path_step``; experiments pin it
#: so results do not depend on host speed.)
MS_PER_PATH_STEP = 5.0e-5

#: Path-steps per request are chosen so a short request costs
#: ``short_demand_ms``: with 100 averaging steps, 10 ms = 2000 paths.
AVERAGING_STEPS = 100


def finance_profile(
    demand_ms: float, config: FinanceConfig, n_steps: int = AVERAGING_STEPS
) -> SpeedupProfile:
    """Speedup profile of a fork-join Monte Carlo request.

    ``T_d = f*L + (1-f)*L/d + c*(d-1)*L/d^2-ish`` would be one choice;
    we use the mechanistic version: a serial fraction, near-linear
    parallel section with a per-thread synchronisation loss, plus a
    fork-join cost per averaging iteration and extra thread.  The
    iteration overhead is *absolute*, so short requests (fewer paths,
    same iteration count) parallelize visibly worse — the reason AP's
    parallelize-everything strategy wastes CPU on this server.
    """
    f = config.serial_fraction
    speedups = [1.0]
    for d in range(2, config.max_parallelism + 1):
        t_d = (
            f * demand_ms
            + (1.0 - f)
            * demand_ms
            / d
            * (1.0 + config.sync_loss_per_thread * (d - 1))
            + n_steps * config.join_overhead_ms * (d - 1)
        )
        speedups.append(max(demand_ms / t_d, speedups[-1]))
    return SpeedupProfile(speedups)


@dataclass
class FinanceWorkload:
    """Bimodal option-pricing request generator."""

    config: FinanceConfig
    speedup_book: SpeedupBook
    group_weights: tuple[float, ...]
    short_profile: SpeedupProfile
    long_profile: SpeedupProfile

    @property
    def short_paths(self) -> int:
        """Monte Carlo paths of a short request."""
        return int(
            round(
                self.config.short_demand_ms
                / (MS_PER_PATH_STEP * AVERAGING_STEPS)
            )
        )

    @property
    def long_paths(self) -> int:
        """Monte Carlo paths of a long request."""
        return int(round(self.short_paths * self.config.long_demand_multiplier))

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
        """Sample ``n`` requests (10 % long by default).

        ``prediction="model"`` uses the structural estimate perturbed
        by the (tiny) configured estimation noise; ``"perfect"`` uses
        the true demand; ``"oracle"`` applies ``oracle_sigma`` noise.
        """
        if n < 1:
            raise WorkloadError(f"n must be >= 1, got {n}")
        if prediction not in ("model", "perfect", "oracle"):
            raise WorkloadError(f"unknown prediction mode {prediction!r}")
        cfg = self.config
        is_long = rng.random(n) < cfg.long_fraction
        structural = np.where(
            is_long,
            self.structural_time_ms(self.long_paths),
            self.structural_time_ms(self.short_paths),
        )
        demand_noise = (
            rng.lognormal(0.0, cfg.demand_noise, size=n)
            if cfg.demand_noise > 0
            else np.ones(n)
        )
        demands = structural * demand_noise
        if prediction == "perfect":
            predictions = demands.copy()
        elif prediction == "oracle":
            predictions = demands * rng.lognormal(0.0, oracle_sigma, size=n)
        else:
            pred_noise = (
                rng.lognormal(0.0, cfg.prediction_noise, size=n)
                if cfg.prediction_noise > 0
                else np.ones(n)
            )
            predictions = structural * pred_noise
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


def build_finance_workload(
    config: FinanceConfig | None = None,
) -> FinanceWorkload:
    """Assemble the Section 5.1 workload.

    Short and long requests get distinct speedup profiles from the
    fork-join mechanism: the serial fraction and per-iteration join
    cost weigh proportionally more on short requests.
    """
    cfg = config if config is not None else FinanceConfig()
    short_ms = cfg.short_demand_ms
    long_ms = short_ms * cfg.long_demand_multiplier
    short_profile = finance_profile(short_ms, cfg)
    long_profile = finance_profile(long_ms, cfg)
    mid_profile = finance_profile((short_ms + long_ms) / 2.0, cfg)
    book = SpeedupBook([short_profile, mid_profile, long_profile])
    weights = [0.0, 0.0, 0.0]
    weights[book.group_of(short_ms)] += 1.0 - cfg.long_fraction
    weights[book.group_of(long_ms)] += cfg.long_fraction
    return FinanceWorkload(
        config=cfg,
        speedup_book=book,
        group_weights=tuple(weights),
        short_profile=short_profile,
        long_profile=long_profile,
    )
