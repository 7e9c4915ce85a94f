"""TP: target-driven predictive parallelism *without* correction.

TP is the ablation of Section 4.3 (Figure 6): identical to TPC at
dispatch time — it reads the instantaneous load, looks up the target
completion time E, and picks the smallest degree whose predicted
execution time meets E — but never adjusts a request at runtime.  TP
matches TPC at the 99th percentile (prediction is accurate enough
there) and loses 40-65 ms at the 99.9th, which isolates the value of
dynamic correction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.predictive import select_degree
from ..core.speedup import SpeedupBook, demand_group
from ..core.target_table import TargetTable
from ..sim.load import LoadMetric, load_value
from .base import ParallelismPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.request import Request
    from ..sim.server import Server

__all__ = ["TPPolicy"]


class TPPolicy(ParallelismPolicy):
    """Predictive parallelism against a load-dependent target."""

    name = "TP"

    def __init__(
        self,
        target_table: TargetTable,
        speedup_book: SpeedupBook,
        load_metric: LoadMetric = LoadMetric.LONG_THREADS,
    ) -> None:
        self.target_table = target_table
        self.speedup_book = speedup_book
        self.load_metric = load_metric
        # The dispatch decision reads these once per request.
        self._profiles = speedup_book.profiles
        self._bounds = speedup_book.bounds_ms

    def initial_degree(self, request: "Request", server: "Server") -> int:
        load = load_value(server, self.load_metric)
        target_ms = self.target_table.target_for(load)
        request.target_ms = target_ms
        predicted_ms = request.predicted_ms
        profile = self._profiles[demand_group(predicted_ms, self._bounds)]
        degree = select_degree(
            predicted_ms, target_ms, profile, server.config.max_parallelism
        )
        observer = self.observer
        if observer is not None:
            observer.on_dispatch_decision(
                request, server, degree, target_ms=target_ms, load=load
            )
        return degree
