"""Trace exporters: Chrome trace-event JSON and plain-text timelines.

:func:`chrome_trace` turns request spans into the Chrome/Perfetto
trace-event format (load the file at ``chrome://tracing`` or
https://ui.perfetto.dev): one thread track per request, a ``request``
duration span wrapping a ``queued`` sub-span and one ``run @ d=N``
sub-span per execution segment, plus an instant marker on
cancellation.  All duration events are emitted as balanced B/E pairs
with microsecond timestamps.

:func:`render_timeline` draws the same structure as fixed-width ASCII
for terminals and docs.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Mapping

from ..errors import SimulationError
from .spans import RequestSpan, SpanCause

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "render_timeline",
    "render_timelines",
]

#: Trace-event timestamps are microseconds; simulation time is ms.
_US_PER_MS = 1000.0


def _span_close_ms(span: RequestSpan) -> float:
    """Time to close a span's track at (end, or last known instant)."""
    if span.end_ms is not None:
        return span.end_ms
    if span.segments:
        return span.segments[-1].end_ms
    if span.dispatch_ms is not None:
        return span.dispatch_ms
    return span.arrival_ms


def chrome_trace(
    spans: Iterable[RequestSpan],
    metrics: Mapping[str, float] | None = None,
    process_name: str = "repro-sim",
) -> dict:
    """Build a Chrome trace-event document from request spans.

    Each request gets its own thread (tid = rid) in one process, so the
    trace viewer stacks requests vertically with queue/run phases nested
    inside the request span.  ``metrics`` (an ``Observation.metrics()``
    dict) rides along under the top-level ``metrics`` key.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        rid = span.rid
        close_ms = _span_close_ms(span)
        common = {"cat": "request", "pid": 0, "tid": rid}

        def _begin(name: str, ts_ms: float, **args) -> None:
            events.append(
                {
                    "name": name,
                    "ph": "B",
                    "ts": ts_ms * _US_PER_MS,
                    **common,
                    **({"args": args} if args else {}),
                }
            )

        def _end(name: str, ts_ms: float) -> None:
            events.append(
                {"name": name, "ph": "E", "ts": ts_ms * _US_PER_MS, **common}
            )

        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": rid,
                "args": {"name": f"rid {rid}"},
            }
        )
        # Events are emitted in temporal order per thread, with the
        # queue/run sub-spans properly nested inside the request span.
        outer = f"request {rid}"
        _begin(
            outer,
            span.arrival_ms,
            cause=span.cause.value,
            max_degree=span.max_degree,
        )
        queue_end = (
            span.dispatch_ms if span.dispatch_ms is not None else close_ms
        )
        _begin("queued", span.arrival_ms)
        _end("queued", queue_end)
        for segment in span.segments:
            name = f"run @ d={segment.degree}"
            _begin(name, segment.start_ms, degree=segment.degree)
            _end(name, segment.end_ms)
        if span.cause in (SpanCause.CANCELLED, SpanCause.HEDGE_SUPERSEDED):
            events.append(
                {
                    "name": "cancelled",
                    "ph": "i",
                    "s": "t",
                    "pid": 0,
                    "tid": rid,
                    "ts": close_ms * _US_PER_MS,
                    "args": {"cause": span.cause.value},
                }
            )
        _end(outer, close_ms)
    doc: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metrics is not None:
        doc["metrics"] = dict(metrics)
    return doc


def write_chrome_trace(fp: IO[str], doc: Mapping[str, object]) -> None:
    """Serialize a trace document (validating it first)."""
    validate_chrome_trace(doc)
    json.dump(doc, fp, indent=1)


def validate_chrome_trace(doc: object) -> int:
    """Structurally validate a Chrome trace document.

    Checks that ``traceEvents`` is a list of well-formed events and
    that, per thread, every B has a matching E with non-decreasing
    timestamps (proper stack nesting).  Returns the event count;
    raises :class:`SimulationError` on any violation.
    """
    if not isinstance(doc, Mapping):
        raise SimulationError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise SimulationError("trace document needs a traceEvents list")
    stacks: dict[tuple[int, int], list[tuple[str, float]]] = {}
    last_ts: dict[tuple[int, int], float] = {}
    for i, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise SimulationError(f"traceEvents[{i}] is not an object")
        phase = event.get("ph")
        name = event.get("name")
        if not isinstance(phase, str) or not isinstance(name, str):
            raise SimulationError(f"traceEvents[{i}] lacks ph/name strings")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            raise SimulationError(f"traceEvents[{i}] lacks a numeric ts")
        key = (event.get("pid", 0), event.get("tid", 0))
        if ts < last_ts.get(key, float("-inf")):
            raise SimulationError(
                f"traceEvents[{i}]: timestamp {ts} goes backwards on "
                f"thread {key}"
            )
        last_ts[key] = float(ts)
        if phase == "B":
            stacks.setdefault(key, []).append((name, float(ts)))
        elif phase == "E":
            stack = stacks.get(key)
            if not stack:
                raise SimulationError(
                    f"traceEvents[{i}]: E {name!r} with no open B on "
                    f"thread {key}"
                )
            open_name, open_ts = stack.pop()
            if open_name != name:
                raise SimulationError(
                    f"traceEvents[{i}]: E {name!r} closes B {open_name!r} "
                    f"on thread {key} (improper nesting)"
                )
            if ts < open_ts:
                raise SimulationError(
                    f"traceEvents[{i}]: {name!r} ends before it begins"
                )
        elif phase not in ("i", "I", "C"):
            raise SimulationError(
                f"traceEvents[{i}]: unsupported phase {phase!r}"
            )
    for key, stack in stacks.items():
        if stack:
            names = ", ".join(repr(n) for n, _ in stack)
            raise SimulationError(
                f"thread {key} has unbalanced B events: {names}"
            )
    return len(events)


def render_timeline(span: RequestSpan, width: int = 60) -> str:
    """Fixed-width ASCII rendering of one request span.

    One row per phase (queue wait, then each execution segment), all on
    a shared time axis from arrival to termination.
    """
    close_ms = _span_close_ms(span)
    total = close_ms - span.arrival_ms
    scale = (width / total) if total > 0 else 0.0

    def _bar(start_ms: float, end_ms: float, char: str) -> str:
        lo = int(round((start_ms - span.arrival_ms) * scale))
        hi = int(round((end_ms - span.arrival_ms) * scale))
        hi = max(hi, lo + 1) if end_ms > start_ms else hi
        return " " * lo + char * (hi - lo) + " " * (width - hi)

    header = (
        f"rid {span.rid}  arrival={span.arrival_ms:.1f}ms  "
        f"cause={span.cause.value}"
    )
    if span.cause.terminal:
        header += (
            f"  response={span.response_ms:.1f}ms"
            f"  queue={span.queue_wait_ms:.1f}ms"
        )
    lines = [header]
    queue_end = span.dispatch_ms if span.dispatch_ms is not None else close_ms
    lines.append(
        f"  {'queued':<8} |{_bar(span.arrival_ms, queue_end, '.')}| "
        f"{queue_end - span.arrival_ms:7.1f} ms"
    )
    for segment in span.segments:
        label = f"d={segment.degree}"
        lines.append(
            f"  {label:<8} |{_bar(segment.start_ms, segment.end_ms, '#')}| "
            f"{segment.duration_ms:7.1f} ms"
        )
    return "\n".join(lines)


def render_timelines(spans: Iterable[RequestSpan], width: int = 60) -> str:
    """Render several spans separated by blank lines."""
    return "\n\n".join(render_timeline(s, width) for s in spans)
