"""AP — Adaptive Parallelism [20] (EuroSys'13).

AP chooses each query's degree from the *average* parallelism speedup
of all queries and the instantaneous system load, picking the degree
that minimises the estimated total response time of the queries in the
system.  It uses no per-query prediction, so short and long queries
receive the same degree (Table 2): generous parallelism when the system
is idle, collapsing to sequential execution as concurrency grows.

Cost model
----------
For a candidate degree ``i`` with average speedup profile ``S̄`` and
``n`` queries currently in the system (queued + running):

``cost(i) = (L̄ / S̄(i)) * (1 + w * n * i / C)``

The first factor is this query's own completion time; the second
charges the thread-time ``i * L̄/S̄(i)`` it withholds from the ``n``
other queries across ``C`` hardware threads, weighted by ``w``
(``AP_INTERFERENCE_WEIGHT``).  The degree minimising the cost is
selected.  With ``n = 0`` this reduces to "use the degree with the best
average speedup"; with large ``n`` it reduces to sequential execution —
matching the published behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..config import AP_INTERFERENCE_WEIGHT
from ..core.speedup import SpeedupBook, SpeedupProfile
from ..errors import ConfigError
from .base import ParallelismPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.request import Request
    from ..sim.server import Server

__all__ = ["AdaptiveParallelismPolicy", "average_profile"]


def average_profile(
    book: SpeedupBook, group_weights: Sequence[float]
) -> SpeedupProfile:
    """Workload-average speedup profile: group profiles weighted by the
    fraction of queries in each group.

    AP is defined over "the average parallelism speedup of all
    queries", so the average is dominated by the short group.
    """
    if len(group_weights) != book.num_groups:
        raise ConfigError(
            f"need {book.num_groups} weights, got {len(group_weights)}"
        )
    total = float(sum(group_weights))
    if total <= 0:
        raise ConfigError("group weights must sum to a positive value")
    speedups = []
    for degree in range(1, book.max_degree + 1):
        s = sum(
            w * p.speedup(degree)
            for w, p in zip(group_weights, book.profiles)
        )
        speedups.append(s / total)
    speedups[0] = 1.0
    return SpeedupProfile(speedups)


class AdaptiveParallelismPolicy(ParallelismPolicy):
    """System-load-driven degree selection with a workload-average
    speedup profile and no per-query prediction."""

    name = "AP"

    def __init__(self, avg_profile: SpeedupProfile) -> None:
        self.avg_profile = avg_profile
        #: Hot-path cache: ``1 / S(d)`` is a constant of the profile,
        #: so it is divided once here instead of once per dispatch.
        self._inverse_speedups = tuple(
            1.0 / avg_profile.speedup(d)
            for d in range(1, avg_profile.max_degree + 1)
        )

    def initial_degree(self, request: "Request", server: "Server") -> int:
        n = server.queue_length + server.running_count
        cores = server.config.hardware_threads
        max_degree = min(server.config.max_parallelism, self.avg_profile.max_degree)
        best_degree = 1
        best_cost = float("inf")
        weighted_n = AP_INTERFERENCE_WEIGHT * n
        inverse = self._inverse_speedups
        for degree in range(1, max_degree + 1):
            interference = 1.0 + weighted_n * degree / cores
            cost = inverse[degree - 1] * interference
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_degree = degree
        return best_degree
