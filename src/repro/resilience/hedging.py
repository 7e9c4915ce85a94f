"""Aggregator-side mitigations: partial wait and hedged re-issue.

A :class:`HedgePolicy` declares what the aggregator does about lagging
replicas instead of waiting for all of them:

* **wait-for-k** — answer once ``wait_for_k`` of the ``n`` replicas
  have reported (partial-wait aggregation; web search tolerates a
  missing shard far better than a missing deadline);
* **hedging** — when a query is still incomplete ``hedge_timeout_ms``
  after arrival, re-issue up to ``max_hedges_per_query`` of its
  lagging shard replicas to secondary ISNs (the least-loaded healthy
  nodes), betting a fresh node beats the straggler;
* **tied requests** — when either member of a hedge pair completes,
  ``tie_cancel`` withdraws the other mid-flight through the engine's
  event-cancel machinery, bounding the extra work a hedge costs.

The default-constructed policy is the paper's wait-for-all aggregator
with no hedging — a guaranteed no-op — so resilience is strictly
opt-in.  Like :class:`~repro.resilience.faults.FaultSpec`, the policy
is frozen plain data and participates in ``repro.exec`` content
hashes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["HedgePolicy"]


@dataclass(frozen=True)
class HedgePolicy:
    """Partial-wait and hedged re-issue configuration (frozen)."""

    #: Replicas to wait for before answering; None means all of them.
    wait_for_k: int | None = None
    #: Outstanding time (ms after query arrival) that triggers a hedged
    #: re-issue of lagging replicas; None disables hedging.
    hedge_timeout_ms: float | None = None
    #: Lagging shard replicas re-issued when the timer fires.
    max_hedges_per_query: int = 1
    #: Cancel the slower member of a hedge pair when the faster one
    #: completes (tied-request cancellation).
    tie_cancel: bool = True

    def __post_init__(self) -> None:
        if self.wait_for_k is not None and self.wait_for_k < 1:
            raise ConfigError(
                f"wait_for_k must be >= 1 or None, got {self.wait_for_k}"
            )
        if self.hedge_timeout_ms is not None and not (
            0 < self.hedge_timeout_ms < math.inf
        ):
            raise ConfigError(
                f"hedge_timeout_ms must be finite and > 0, or None, got "
                f"{self.hedge_timeout_ms}"
            )
        if self.max_hedges_per_query < 1:
            raise ConfigError(
                f"max_hedges_per_query must be >= 1, got "
                f"{self.max_hedges_per_query}"
            )

    @classmethod
    def wait_for_all(cls) -> "HedgePolicy":
        """The paper's aggregator: wait for every replica, never hedge."""
        return cls()

    @classmethod
    def partial(cls, wait_for_k: int) -> "HedgePolicy":
        """Answer after the first ``wait_for_k`` replicas, no hedging."""
        return cls(wait_for_k=wait_for_k)

    @classmethod
    def hedged(
        cls,
        hedge_timeout_ms: float,
        max_hedges_per_query: int = 1,
        tie_cancel: bool = True,
        wait_for_k: int | None = None,
    ) -> "HedgePolicy":
        """Timeout-triggered hedging (optionally on top of wait-for-k)."""
        return cls(
            wait_for_k=wait_for_k,
            hedge_timeout_ms=hedge_timeout_ms,
            max_hedges_per_query=max_hedges_per_query,
            tie_cancel=tie_cancel,
        )

    @property
    def hedging_enabled(self) -> bool:
        """True when a hedge timer is armed per query."""
        return self.hedge_timeout_ms is not None

    def effective_k(self, num_isns: int) -> int:
        """The replica quorum for an ``num_isns``-wide cluster."""
        if self.wait_for_k is None:
            return num_isns
        if self.wait_for_k > num_isns:
            raise ConfigError(
                f"wait_for_k={self.wait_for_k} exceeds num_isns={num_isns}"
            )
        return self.wait_for_k

    def is_noop(self, num_isns: int) -> bool:
        """True when this policy reproduces wait-for-all exactly."""
        return (
            not self.hedging_enabled
            and self.effective_k(num_isns) == num_isns
        )
