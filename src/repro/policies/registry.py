"""Policy registry: build any policy of the evaluation by name.

Centralises policy construction for the experiment harness and the
benchmarks, and records the information-use matrix of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import PolicyConfig
from ..core.speedup import SpeedupBook
from ..core.target_table import TargetTable
from ..errors import ConfigError
from ..sim.load import LoadMetric
from .adaptive_rampup import AdaptiveRampUpPolicy
from .ap import AdaptiveParallelismPolicy, average_profile
from .base import ParallelismPolicy
from .pred import PredPolicy
from .rampup import RampUpPolicy
from .sequential import SequentialPolicy
from .tp import TPPolicy
from .tpc import TPCPolicy
from .wq_linear import WQLinearPolicy

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Sequence

__all__ = ["PolicyInfo", "POLICY_INFO", "make_policy", "policy_names"]


@dataclass(frozen=True)
class PolicyInfo:
    """One row of Table 1: which information a policy consumes."""

    name: str
    uses_prediction: bool
    uses_system_load: bool
    uses_parallelism_efficiency: bool


#: Table 1 of the paper (extended with the additional baselines).
POLICY_INFO: dict[str, PolicyInfo] = {
    "TPC": PolicyInfo("TPC", True, True, True),
    "TP": PolicyInfo("TP", True, True, True),
    "AP": PolicyInfo("AP", False, True, True),
    "Pred": PolicyInfo("Pred", True, False, False),
    "WQ-Linear": PolicyInfo("WQ-Linear", False, True, False),
    "RampUp": PolicyInfo("RampUp", False, False, False),
    "RampUp-Adaptive": PolicyInfo("RampUp-Adaptive", False, True, False),
    "Sequential": PolicyInfo("Sequential", False, False, False),
}


def policy_names() -> list[str]:
    """All registered policy names."""
    return list(POLICY_INFO)


def make_policy(
    name: str,
    speedup_book: SpeedupBook,
    group_weights: "Sequence[float]",
    target_table: TargetTable | None = None,
    policy_config: PolicyConfig | None = None,
    load_metric: LoadMetric = LoadMetric.LONG_THREADS,
) -> ParallelismPolicy:
    """Construct a policy by registry name.

    Parameters
    ----------
    name:
        One of :func:`policy_names`.
    speedup_book:
        Per-group parallelism-efficiency profiles of the workload.
    group_weights:
        Fraction of queries in each demand group (AP's average profile).
    target_table:
        Required for the TP/TPC families.
    policy_config:
        Every policy knob (Pred's fixed degree, RampUp's interval, ...);
        defaults to :class:`PolicyConfig`.
    """
    cfg = policy_config if policy_config is not None else PolicyConfig()
    if name == "Sequential":
        return SequentialPolicy()
    if name == "Pred":
        return PredPolicy(cfg.long_threshold_ms, cfg.pred_fixed_degree)
    if name == "WQ-Linear":
        return WQLinearPolicy(cfg.wq_linear_beta)
    if name == "AP":
        avg = average_profile(speedup_book, list(group_weights))
        return AdaptiveParallelismPolicy(avg, cfg.ap_interference_weight)
    if name == "RampUp":
        return RampUpPolicy(cfg.rampup_interval_ms)
    if name == "RampUp-Adaptive":
        return AdaptiveRampUpPolicy()
    if name in ("TP", "TPC"):
        if target_table is None:
            raise ConfigError(f"{name} requires a target table")
        if name == "TP":
            return TPPolicy(target_table, speedup_book, load_metric)
        return TPCPolicy(
            target_table,
            speedup_book,
            load_metric,
            correction_recheck_ms=cfg.correction_recheck_ms,
        )
    raise ConfigError(
        f"unknown policy {name!r}; known: {', '.join(POLICY_INFO)}"
    )
