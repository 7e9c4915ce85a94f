"""TPC: target-driven parallelism with prediction and correction.

The paper's contribution (Section 3).  At dispatch, TPC behaves exactly
like :class:`~repro.policies.tp.TPPolicy` — predictive parallelism
against the load-dependent target E.  In addition, a timer fires when a
request has been executing for E without completing (a long request
mispredicted as short, or a target miss under transient overload); the
dynamic-correction controller then raises the request's degree using
the idle worker threads, re-checking periodically until the request
completes or reaches the maximum degree.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..config import CORRECTION_RECHECK_MS, CORRECTION_RESOURCE_SIGNALS
from ..core.correction import CorrectionController
from ..core.speedup import SpeedupBook
from ..core.target_table import TargetTable
from ..errors import ConfigError
from ..sim.load import LoadMetric
from .tp import TPPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.request import Request
    from ..sim.server import Server

__all__ = ["TPCPolicy"]


class TPCPolicy(TPPolicy):
    """Predictive parallelism plus dynamic correction (the full TPC).

    The correction knobs (trigger factor on E and spare-resource
    signal) are :class:`~repro.config.PolicyConfig`'s ``correction_*``
    fields, documented there; the defaults reproduce the paper.  The
    re-check interval is the constant ``CORRECTION_RECHECK_MS``.
    """

    name = "TPC"

    def __init__(
        self,
        target_table: TargetTable,
        speedup_book: SpeedupBook,
        load_metric: LoadMetric = LoadMetric.LONG_THREADS,
        correction_delay_factor: float = 1.0,
        resource_signal: str = "idle_workers",
    ) -> None:
        super().__init__(target_table, speedup_book, load_metric)
        if not 0 < correction_delay_factor < math.inf:
            raise ConfigError(
                f"correction_delay_factor must be finite and > 0, got "
                f"{correction_delay_factor}"
            )
        if resource_signal not in CORRECTION_RESOURCE_SIGNALS:
            raise ConfigError(f"unknown resource signal {resource_signal!r}")
        self._delay_factor = float(correction_delay_factor)
        self._resource_signal = resource_signal
        self._controller: CorrectionController | None = None

    def bind(self, server: "Server") -> None:
        self._controller = CorrectionController(
            max_degree=server.config.max_parallelism,
            recheck_ms=CORRECTION_RECHECK_MS,
        )

    def first_check_delay(
        self, request: "Request", server: "Server"
    ) -> float | None:
        # The correction timer fires when the request has executed for
        # its target E without completing.
        if request.degree >= server.config.max_parallelism:
            return None  # already maximally parallel; nothing to correct
        if request.target_ms is None:
            return None
        return request.target_ms * self._delay_factor

    def _spare_resources(self, server: "Server") -> int:
        if self._resource_signal == "idle_hardware":
            return max(
                server.config.hardware_threads - server.total_active_threads,
                0,
            )
        return server.idle_workers

    def on_check(
        self, request: "Request", server: "Server"
    ) -> tuple[int | None, float | None]:
        assert self._controller is not None, "policy not bound to a server"
        spare = self._spare_resources(server)
        decision = self._controller.decide(request.degree, spare)
        if decision.new_degree is not None:
            request.corrected = True
        observer = self.observer
        if observer is not None:
            observer.on_correction_check(
                request,
                server,
                elapsed_ms=request.running_for(server.now),
                target_ms=request.target_ms,
                spare_workers=spare,
                new_degree=decision.new_degree,
                will_recheck=decision.recheck_after_ms is not None,
            )
        return (decision.new_degree, decision.recheck_after_ms)
