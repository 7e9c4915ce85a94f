"""Span-based view of request timelines.

A :class:`RequestSpan` upgrades the flat per-request event stream of
:class:`repro.sim.tracing.RequestTracer` into a structured span: the
queue-wait phase, one execution :class:`Segment` per parallelism
degree the request ran at, and a terminal cause (completed, cancelled,
hedge-superseded, or still open when the trace was truncated).  Spans
are what the exporters render and what the tail-attribution report
classifies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..errors import SimulationError
from ..sim.tracing import TraceEventKind

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.tracing import RequestTracer, TraceEvent

__all__ = ["SpanCause", "Segment", "RequestSpan", "assemble_spans", "slowest_spans"]


class SpanCause(enum.Enum):
    """How (or whether) a request's span ended."""

    COMPLETED = "completed"
    CANCELLED = "cancelled"
    #: Cancelled because the other member of its hedge pair delivered
    #: the shard's result first (tied-request cancellation).
    HEDGE_SUPERSEDED = "hedge-superseded"
    #: No terminal event in the trace (the request was still in
    #: flight when tracing stopped).
    OPEN = "open"

    @property
    def terminal(self) -> bool:
        """Whether the span actually ended inside the trace."""
        return self is not SpanCause.OPEN


@dataclass(frozen=True)
class Segment:
    """One contiguous stretch of execution at a fixed degree."""

    start_ms: float
    end_ms: float
    degree: int

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class RequestSpan:
    """The structured lifetime of one request.

    ``dispatch_ms`` is None for requests cancelled while still queued
    (or whose dispatch event was dropped); ``end_ms`` is None only for
    OPEN spans.
    """

    rid: int
    arrival_ms: float
    dispatch_ms: float | None
    end_ms: float | None
    cause: SpanCause
    segments: tuple[Segment, ...]

    @property
    def queue_wait_ms(self) -> float:
        """Arrival to dispatch (to termination if never dispatched)."""
        if self.dispatch_ms is not None:
            return self.dispatch_ms - self.arrival_ms
        if self.end_ms is not None:
            return self.end_ms - self.arrival_ms
        return 0.0

    @property
    def response_ms(self) -> float:
        """Arrival to termination (raises on OPEN spans)."""
        if self.end_ms is None:
            raise SimulationError(f"span of request {self.rid} is still open")
        return self.end_ms - self.arrival_ms

    @property
    def initial_degree(self) -> int:
        """Degree of the first execution segment (0 if never dispatched)."""
        return self.segments[0].degree if self.segments else 0

    @property
    def max_degree(self) -> int:
        """Highest degree any segment ran at (0 if never dispatched)."""
        return max((s.degree for s in self.segments), default=0)

    @property
    def corrected(self) -> bool:
        """Whether the degree was raised mid-flight."""
        return len(self.segments) > 1


def _span_from_timeline(
    rid: int, timeline: "list[TraceEvent]"
) -> RequestSpan:
    arrival_ms = timeline[0].time_ms
    dispatch_ms: float | None = None
    end_ms: float | None = None
    cause = SpanCause.OPEN
    segments: list[Segment] = []
    open_start: float | None = None
    open_degree = 0
    for event in timeline:
        kind = event.kind
        if kind is TraceEventKind.ARRIVAL:
            arrival_ms = event.time_ms
        elif kind is TraceEventKind.DISPATCH:
            dispatch_ms = event.time_ms
            open_start = event.time_ms
            open_degree = event.degree
        elif kind is TraceEventKind.DEGREE_CHANGE:
            if open_start is not None:
                segments.append(
                    Segment(open_start, event.time_ms, open_degree)
                )
            open_start = event.time_ms
            open_degree = event.degree
        else:  # COMPLETION or CANCELLED
            end_ms = event.time_ms
            if open_start is not None:
                segments.append(Segment(open_start, event.time_ms, open_degree))
                open_start = None
            if kind is TraceEventKind.COMPLETION:
                cause = SpanCause.COMPLETED
            elif event.cause == SpanCause.HEDGE_SUPERSEDED.value:
                cause = SpanCause.HEDGE_SUPERSEDED
            else:
                cause = SpanCause.CANCELLED
            break
    if cause is SpanCause.OPEN and open_start is not None:
        # Truncated trace: close the trailing segment at its own start
        # so exporters still emit balanced, monotone phase pairs.
        segments.append(Segment(open_start, open_start, open_degree))
    return RequestSpan(
        rid=rid,
        arrival_ms=arrival_ms,
        dispatch_ms=dispatch_ms,
        end_ms=end_ms,
        cause=cause,
        segments=tuple(segments),
    )


def assemble_spans(tracer: "RequestTracer") -> list[RequestSpan]:
    """One span per traced request, in rid order.

    O(total events): each request's timeline is read once through the
    tracer's per-rid index.
    """
    return [
        _span_from_timeline(rid, tracer.timeline(rid))
        for rid in sorted(tracer.requests_traced())
    ]


def slowest_spans(
    spans: Iterable[RequestSpan], n: int = 3
) -> list[RequestSpan]:
    """The ``n`` terminal spans with the largest response time."""
    closed = [s for s in spans if s.cause.terminal]
    closed.sort(key=lambda s: s.response_ms, reverse=True)
    return closed[:n]
