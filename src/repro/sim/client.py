"""Open-loop load generation.

The paper's client "plays queries from a trace of 100K user queries
using a Poisson process in an open loop" and varies load by changing
the arrival rate (queries per second).  :class:`OpenLoopClient`
schedules every arrival up-front on the engine; arrivals are
independent of completions (open loop), so an overloaded server builds
a real queue instead of back-pressuring the client.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import WorkloadError
from .engine import Engine
from .request import Request
from .server import Server

__all__ = ["OpenLoopClient", "replay_trace", "poisson_arrival_times"]


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
    """Schedules a request trace onto one or more servers.

    Parameters
    ----------
    servers:
        Target servers.  With one server every request goes to it; with
        several, ``fanout=True`` sends each request to *all* servers
        (partition-aggregate, Figure 1) while ``fanout=False`` is
        round-robin.
    make_replica:
        Cluster hook: called as ``make_replica(request, server_index)``
        to derive the per-ISN replica of a logical request (per-shard
        demand jitter).  Defaults to sending the same Request object,
        which is only valid for a single server.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        fanout: bool = False,
        make_replica: Callable[[Request, int], Request] | None = None,
    ) -> None:
        if not servers:
            raise WorkloadError("at least one server required")
        if fanout and len(servers) > 1 and make_replica is None:
            raise WorkloadError(
                "fanout to multiple servers requires make_replica to clone "
                "requests per ISN"
            )
        self.servers = list(servers)
        self.fanout = fanout
        self.make_replica = make_replica

    def schedule_trace(
        self,
        engine: Engine,
        requests: Iterable[Request],
        qps: float,
        rng: np.random.Generator,
    ) -> int:
        """Schedule all requests as a Poisson process at ``qps``.

        Returns the number of logical requests scheduled.
        """
        request_list = list(requests)
        times = poisson_arrival_times(len(request_list), qps, rng)
        for i, (request, at) in enumerate(zip(request_list, times)):
            self._schedule_one(engine, request, float(at), i)
        return len(request_list)

    def _schedule_one(
        self, engine: Engine, request: Request, at_ms: float, index: int
    ) -> None:
        if self.fanout:
            for s_idx, server in enumerate(self.servers):
                replica = (
                    self.make_replica(request, s_idx)
                    if self.make_replica is not None
                    else request
                )
                engine.schedule_at(at_ms, lambda s=server, r=replica: s.submit(r))
        else:
            server = self.servers[index % len(self.servers)]
            engine.schedule_at(at_ms, lambda s=server, r=request: s.submit(r))


def replay_trace(
    server: Server,
    requests: Sequence[Request],
    qps: float,
    rng: np.random.Generator,
) -> None:
    """Run a full single-server experiment to completion.

    Schedules ``requests`` at ``qps`` on ``server`` and drives the
    engine until every request completes.
    """
    client = OpenLoopClient([server])
    n = client.schedule_trace(server.engine, requests, qps, rng)
    server.run_to_completion(n)
