"""Per-request timeline tracing.

Optional observability layer: attach a :class:`RequestTracer` to a
server and it records a timestamped event timeline for every request —
arrival, dispatch (with chosen degree), every degree change, and
completion or cancellation (with its cause).  Useful for debugging
policies, for the examples, for asserting fine-grained scheduling
behaviour in tests without poking at server internals, and as the
event substrate of the :mod:`repro.obs` span/metrics layer.

Tracing is strictly opt-in: an unattached server runs the exact same
code it always did (:func:`attach_tracer` wraps the lifecycle methods
of one server instance and plugs into its ``dispatch_callback`` hook;
nothing global changes), so the disabled path stays bit-identical.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, NamedTuple

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .request import Request
    from .server import Server

__all__ = ["TraceEventKind", "TraceEvent", "RequestTracer", "attach_tracer"]


class TraceEventKind(enum.Enum):
    """Kinds of timeline events."""

    ARRIVAL = "arrival"
    DISPATCH = "dispatch"
    DEGREE_CHANGE = "degree_change"
    COMPLETION = "completion"
    #: Withdrawn mid-flight (tied-request cancellation, replica kill):
    #: terminal like COMPLETION, but may follow ARRIVAL directly when a
    #: request is cancelled while still queued.
    CANCELLED = "cancelled"


class TraceEvent(NamedTuple):
    """One timeline entry of one request.

    ``cause`` is only populated on CANCELLED events, naming why the
    request was withdrawn (e.g. ``"hedge-superseded"``, ``"blackout"``);
    None means the caller gave no reason.

    A NamedTuple so the tracer can upgrade the raw 5-tuples recorded
    on the hot path in place (``TraceEvent._make``), lazily, on the
    first query.
    """

    time_ms: float
    rid: int
    kind: TraceEventKind
    degree: int
    cause: str | None = None

    def __str__(self) -> str:
        suffix = f", cause={self.cause}" if self.cause is not None else ""
        return (
            f"[{self.time_ms:9.3f} ms] request {self.rid}: "
            f"{self.kind.value} (degree={self.degree}{suffix})"
        )


class RequestTracer:
    """Collects :class:`TraceEvent` timelines from one server.

    Recording is a bare list append — the hot path pays nothing for
    indexing.  A per-request index is built lazily (and cached) on the
    first timeline query after new events arrive, so :meth:`timeline`
    is O(events of that request) amortised instead of a full scan per
    call — span assembly over large traces stays linear overall.
    """

    def __init__(self) -> None:
        #: Hot-path storage.  The attach_tracer wrappers append plain
        #: 5-tuples here (field order of :class:`TraceEvent`);
        #: :meth:`_materialize` upgrades them to TraceEvent lazily, so
        #: the simulation never pays NamedTuple construction.
        self._events: list[TraceEvent] = []
        self._timelines: dict[int, list[TraceEvent]] = {}
        #: Number of events the lazy index has consumed (index is stale
        #: whenever the event list is longer than this).
        self._indexed = 0
        #: Number of events known to be materialized TraceEvents.
        self._materialized = 0

    def __len__(self) -> int:
        """Number of recorded events."""
        return len(self._events)

    def record(
        self,
        time_ms: float,
        rid: int,
        kind: TraceEventKind,
        degree: int,
        cause: str | None = None,
    ) -> None:
        """Append one event."""
        self._events.append(TraceEvent(time_ms, rid, kind, degree, cause))

    def _materialize(self) -> list[TraceEvent]:
        """Upgrade any raw event tuples to TraceEvent, in place."""
        events = self._events
        if self._materialized != len(events):
            make = TraceEvent._make
            for i in range(self._materialized, len(events)):
                event = events[i]
                if type(event) is not TraceEvent:
                    events[i] = make(event)
            self._materialized = len(events)
        return events

    def _index(self) -> dict[int, list[TraceEvent]]:
        """The per-rid index, (re)built lazily after new events."""
        self._materialize()
        if self._indexed != len(self._events):
            start = self._indexed
            timelines = self._timelines
            for event in self._events[start:]:
                timeline = timelines.get(event.rid)
                if timeline is None:
                    timelines[event.rid] = [event]
                else:
                    timeline.append(event)
            self._indexed = len(self._events)
        return self._timelines

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """All recorded events in simulation order."""
        return tuple(self._materialize())

    def timeline(self, rid: int) -> list[TraceEvent]:
        """Events of one request, in order (amortised O(own events))."""
        timeline = self._index().get(rid)
        return list(timeline) if timeline is not None else []

    def requests_traced(self) -> set[int]:
        """Ids of all requests with at least one event."""
        return set(self._index())


def attach_tracer(
    server: "Server",
    tracer: RequestTracer | None = None,
    on_arrival: "Callable[[Request], None] | None" = None,
) -> RequestTracer:
    """Instrument a server with a tracer (wraps its lifecycle hooks).

    Must be called before any request is submitted.  ``tracer`` lets
    several servers of one cluster share a tracer (or lets callers
    supply their own).  ``on_arrival`` is invoked once per submitted
    request (with the live request only); it is the cheap hook
    :class:`repro.obs.Observation` uses to capture ground-truth demand
    info without paying a callback per event.
    """
    if server.running or server.waiting or len(server.recorder):
        raise SimulationError("attach_tracer requires a fresh server")
    if server.dispatch_callback is not None:
        raise SimulationError("server already has a dispatch_callback")
    if tracer is None:
        tracer = RequestTracer()

    original_submit = server.submit
    original_raise = server.raise_degree
    original_complete = server._complete
    original_cancel = server.cancel_request
    # Pre-bound hot-path locals: the wrappers run once per lifecycle
    # transition of every request, so each saved attribute lookup counts
    # against the enabled-path overhead budget.  Events are recorded as
    # plain 5-tuples (TraceEvent field order) through the raw list
    # append; the tracer materializes NamedTuples lazily on the first
    # query, so the hot path never pays construction.
    record_event = tracer._events.append
    engine = server.engine  # server.now is a property; engine.now is flat
    arrival_kind = TraceEventKind.ARRIVAL
    dispatch_kind = TraceEventKind.DISPATCH
    change_kind = TraceEventKind.DEGREE_CHANGE
    completion_kind = TraceEventKind.COMPLETION
    cancelled_kind = TraceEventKind.CANCELLED

    def submit(request: "Request") -> None:
        # Recorded before the submit call so that an immediate
        # same-instant dispatch lands after the arrival — timelines
        # always read arrival -> dispatch with a plain append.
        record_event((engine.now, request.rid, arrival_kind, 0, None))
        original_submit(request)
        if on_arrival is not None:
            on_arrival(request)

    def on_dispatch(request: "Request") -> None:
        record_event(
            (engine.now, request.rid, dispatch_kind, request.degree, None)
        )

    def raise_degree(request: "Request", new_degree: int) -> int:
        before = request.degree
        granted = original_raise(request, new_degree)
        if granted > before:
            record_event((engine.now, request.rid, change_kind, granted, None))
        return granted

    def complete(request: "Request") -> None:
        original_complete(request)
        record_event(
            (engine.now, request.rid, completion_kind, request.degree, None)
        )

    def cancel_request(request: "Request", cause: str | None = None) -> float:
        degree = request.degree
        work_done = original_cancel(request, cause)
        record_event(
            (
                engine.now,
                request.rid,
                cancelled_kind,
                degree,
                request.cancel_cause,
            )
        )
        return work_done

    server.submit = submit  # type: ignore[method-assign]
    server.dispatch_callback = on_dispatch
    server.raise_degree = raise_degree  # type: ignore[method-assign]
    server._complete = complete  # type: ignore[method-assign]
    server.cancel_request = cancel_request  # type: ignore[method-assign]
    return tracer
