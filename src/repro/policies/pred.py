"""Pred [21]: prediction-only parallelization with a fixed degree.

Pred predicts each query's execution time with the boosted-tree
regressor and parallelizes queries predicted to exceed the long-query
threshold (``LONG_QUERY_MS``, 80 ms) using a *fixed* degree — 3 for web
search, 2 for finance, per the reported guidelines.  All other queries
run sequentially.  Pred uses no system-load information, which is why
it over-commits at light load (it could afford more parallelism) and
why mispredicted long queries dominate its 99.9th percentile.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import LONG_QUERY_MS
from ..errors import ConfigError
from .base import ParallelismPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.request import Request
    from ..sim.server import Server

__all__ = ["PredPolicy"]


class PredPolicy(ParallelismPolicy):
    """Fixed-degree parallelization of predicted-long queries."""

    name = "Pred"

    def __init__(self, fixed_degree: int = 3) -> None:
        if fixed_degree < 1:
            raise ConfigError("fixed_degree must be >= 1")
        self.fixed_degree = int(fixed_degree)

    def initial_degree(self, request: "Request", server: "Server") -> int:
        degree = (
            self.fixed_degree
            if request.predicted_ms > LONG_QUERY_MS
            else 1
        )
        observer = self.observer
        if observer is not None:
            observer.on_dispatch_decision(request, server, degree)
        return degree
