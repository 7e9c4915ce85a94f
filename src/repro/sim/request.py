"""Request model and lifecycle record.

A :class:`Request` carries the workload-side truth (sequential service
demand, true speedup profile), the scheduler-side inputs (predicted
execution time), and the runtime state the server mutates while the
request queues, executes, and completes.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.speedup import SpeedupProfile

__all__ = ["Request", "RequestState"]

_INF = math.inf
_NAN = math.nan


class RequestState(enum.Enum):
    """Lifecycle states of a request inside one server."""

    CREATED = "created"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    #: Withdrawn mid-flight (tied-request cancellation, replica kill);
    #: terminal like COMPLETED but never recorded as a completion.
    CANCELLED = "cancelled"


_CREATED = RequestState.CREATED


class Request:
    """One request (query) flowing through a simulated server.

    Parameters
    ----------
    rid:
        Unique id within one experiment.
    demand_ms:
        True sequential service demand in milliseconds.
    predicted_ms:
        Execution time predicted before the request runs (the paper's
        ``L``); equals ``demand_ms`` under a perfect oracle.
    speedup:
        The request's *true* speedup profile — how fast it actually runs
        at each parallelism degree.  Policies do not see this; they look
        up a group-average profile via the predicted time.
    """

    __slots__ = (
        "rid",
        "demand_ms",
        "predicted_ms",
        "speedup",
        "state",
        "arrival_ms",
        "start_ms",
        "finish_ms",
        "degree",
        "initial_degree",
        "max_degree_seen",
        "remaining_work_ms",
        "corrected",
        "target_ms",
        "degree_changes",
        "check_handle",
        "service_speedup",
        "cancel_cause",
    )

    def __init__(
        self,
        rid: int,
        demand_ms: float,
        predicted_ms: float,
        speedup: "SpeedupProfile",
    ) -> None:
        if not 0 < demand_ms < _INF:
            raise SimulationError(
                f"demand must be finite and positive, got {demand_ms}"
            )
        if not 0 <= predicted_ms < _INF:
            raise SimulationError(
                f"prediction must be finite and >= 0, got {predicted_ms}"
            )
        demand_ms = float(demand_ms)
        self.rid = rid
        self.demand_ms = demand_ms
        self.predicted_ms = float(predicted_ms)
        self.speedup = speedup
        self.state = _CREATED
        self.arrival_ms: float = _NAN
        self.start_ms: float = _NAN
        self.finish_ms: float = _NAN
        self.degree = 0
        self.initial_degree = 0
        self.max_degree_seen = 0
        self.remaining_work_ms = demand_ms
        self.corrected = False
        #: Target completion time E assigned at dispatch (TPC-family only).
        self.target_ms: float | None = None
        #: Count of mid-flight degree increases (for overhead accounting).
        self.degree_changes = 0
        #: Pending runtime-check event handle, cancelled on completion.
        self.check_handle = None
        #: Effective speedup ``S(degree)``, set by the server whenever it
        #: assigns or raises the degree (hot-path: avoids a profile
        #: lookup per event).
        self.service_speedup = 1.0
        #: Why the request was withdrawn (``Server.cancel_request``'s
        #: ``cause``); None while live, completed, or when no cause was
        #: given.
        self.cancel_cause: str | None = None

    @property
    def response_ms(self) -> float:
        """Response time = queueing delay + execution time."""
        if self.state is not RequestState.COMPLETED:
            raise SimulationError(f"request {self.rid} has not completed")
        return self.finish_ms - self.arrival_ms

    @property
    def queueing_ms(self) -> float:
        """Time spent in the waiting queue before execution started."""
        if self.state is RequestState.CREATED or self.state is RequestState.QUEUED:
            raise SimulationError(f"request {self.rid} has not started")
        return self.start_ms - self.arrival_ms

    def running_for(self, now_ms: float) -> float:
        """Milliseconds since execution began (valid while RUNNING)."""
        if self.state is not RequestState.RUNNING:
            raise SimulationError(f"request {self.rid} is not running")
        return now_ms - self.start_ms

    def __repr__(self) -> str:
        return (
            f"Request(rid={self.rid}, demand={self.demand_ms:.2f}ms, "
            f"pred={self.predicted_ms:.2f}ms, state={self.state.value}, "
            f"degree={self.degree})"
        )
