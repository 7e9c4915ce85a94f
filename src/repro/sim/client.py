"""Open-loop load generation.

The paper's client "plays queries from a trace of 100K user queries
using a Poisson process in an open loop" and varies load by changing
the arrival rate (queries per second).  :class:`OpenLoopClient`
schedules the whole trace up-front as one engine series
(:meth:`~repro.sim.engine.Engine.schedule_series`); arrivals are
independent of completions (open loop), so an overloaded server builds
a real queue instead of back-pressuring the client.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..errors import WorkloadError
from .engine import Engine
from .request import Request
from .server import Server

__all__ = ["OpenLoopClient", "poisson_arrival_times"]


def poisson_arrival_times(
    n: int, qps: float, rng: np.random.Generator
) -> np.ndarray:
    """Cumulative arrival times (ms) of ``n`` Poisson arrivals at ``qps``."""
    if n < 1:
        raise WorkloadError(f"need at least one arrival, got {n}")
    if not 0 < qps < math.inf:
        raise WorkloadError(f"qps must be finite and positive, got {qps}")
    mean_gap_ms = 1000.0 / qps
    gaps = rng.exponential(mean_gap_ms, size=n)
    return np.cumsum(gaps)


class OpenLoopClient:
    """Schedules a request trace onto one server.

    Fan-out to the ISNs of a cluster (Figure 1) is not the client's
    job: :func:`repro.resilience.cluster.run_shared_resilient` schedules
    every cluster run's arrivals itself.
    """

    def __init__(self, server: Server) -> None:
        self.server = server

    def schedule_trace(
        self,
        engine: Engine,
        requests: Iterable[Request],
        qps: float,
        rng: np.random.Generator,
    ) -> int:
        """Schedule all requests as a Poisson process at ``qps``.

        Returns the number of requests scheduled.
        """
        request_list = list(requests)
        times = poisson_arrival_times(len(request_list), qps, rng)
        server = self.server
        # server.submit is looked up per arrival, not bound here: a
        # tracer attached after scheduling wraps it on the instance.
        engine.schedule_series(
            times.tolist(), lambda request: server.submit(request), request_list
        )
        return len(request_list)
