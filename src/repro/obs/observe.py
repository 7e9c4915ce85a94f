"""One handle for an observed run: tracer + decision log + metrics.

An :class:`Observation` bundles the two sinks of the observability
layer — a :class:`~repro.sim.tracing.RequestTracer` and a
:class:`~repro.obs.attribution.DecisionLog` — and attaches them to a
server in one call.  Attachment is strictly additive: an unobserved
server runs the exact same float operations it always did, so goldens
and gate event counts are unchanged when no observation is in play.

The enabled path is kept inside the perf budget (<15 % events/s on
the hot-path benchmark) by doing *nothing but recording* while the
simulation runs: the tracer appends raw events, and ``attach`` hooks
only the per-request arrival to capture the live request object.
Counters, levels and histograms are derived afterwards, by
:meth:`Observation.metrics`, in one pass over the event stream — same
numbers, zero per-event metric cost.

:func:`observe_cell` runs one declarative
:class:`~repro.exec.spec.CellSpec` with observation attached and
returns both the ordinary :class:`~repro.exec.spec.CellResult`
(bit-identical to ``run_cell`` on the same spec) and the observation.
Observability never joins the spec itself — it does not change
results, so it must not change cache keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..sim.tracing import (
    RequestTracer,
    TraceEvent,
    TraceEventKind,
    attach_tracer,
)
from .attribution import DecisionLog, RequestInfo, TailReport, tail_report
from .spans import RequestSpan, assemble_spans

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.spec import CellResult, CellSpec
    from ..sim.request import Request
    from ..sim.server import Server

__all__ = ["Observation", "observe_cell"]

#: Quantiles a histogram reports (matches LatencySummary).
QUANTILES = (50.0, 95.0, 99.0, 99.9)


def _histogram(name: str, sample: list[float]) -> dict[str, float]:
    """``name.count`` plus, if non-empty, mean/min/max and quantiles."""
    out = {f"{name}.count": float(len(sample))}
    if sample:
        out[f"{name}.mean"] = float(sum(sample)) / len(sample)
        out[f"{name}.min"] = min(sample)
        out[f"{name}.max"] = max(sample)
        values = np.percentile(np.asarray(sample, dtype=np.float64), QUANTILES)
        for q, value in zip(QUANTILES, values):
            out[f"{name}.p{q:g}"] = float(value)
    return out


def _derive_metrics(
    events: Iterable[TraceEvent], requests: Mapping[int, "Request"]
) -> dict[str, float]:
    """One server's metrics, from one pass over its events in order.

    Counters (``arrivals``, ``dispatches``, ``completions``,
    ``cancellations``, ``cancelled.<cause>``, ``degree_raises``) are
    event counts; ``queue_depth`` and ``running`` are the levels after
    the last event, each with a ``.max`` high-water mark;
    ``queue_wait_ms``, ``response_ms``, ``execution_ms`` and
    ``initial_degree`` are histograms.  ``requests`` (rid -> live
    request, captured at arrival) supplies arrival and start times;
    events of a request missing from it add no latency sample.  The
    result is flat, keyed by metric name in sorted order, each metric's
    own keys after it.
    """
    counts = dict.fromkeys(
        ("arrivals", "cancellations", "completions", "degree_raises", "dispatches"),
        0,
    )
    queue_wait: list[float] = []
    response: list[float] = []
    execution: list[float] = []
    initial_degree: list[float] = []
    queued = running = 0
    queued_max = running_max = 0
    for time_ms, rid, kind, degree, cause in events:
        if kind is TraceEventKind.ARRIVAL:
            counts["arrivals"] += 1
            queued += 1
            queued_max = max(queued_max, queued)
        elif kind is TraceEventKind.DISPATCH:
            counts["dispatches"] += 1
            queued -= 1
            running += 1
            running_max = max(running_max, running)
            initial_degree.append(float(degree))
            request = requests.get(rid)
            if request is not None:
                queue_wait.append(time_ms - request.arrival_ms)
        elif kind is TraceEventKind.DEGREE_CHANGE:
            counts["degree_raises"] += 1
        elif kind is TraceEventKind.COMPLETION:
            counts["completions"] += 1
            running -= 1
            request = requests.get(rid)
            if request is not None:
                response.append(time_ms - request.arrival_ms)
                execution.append(time_ms - request.start_ms)
        else:  # CANCELLED
            counts["cancellations"] += 1
            # Degree 0 means the request was withdrawn while queued.
            if degree > 0:
                running -= 1
            else:
                queued -= 1
            if cause is not None:
                key = f"cancelled.{cause}"
                counts[key] = counts.get(key, 0) + 1

    metrics = {name: {name: float(count)} for name, count in counts.items()}
    for name, level, peak in (
        ("queue_depth", queued, queued_max),
        ("running", running, running_max),
    ):
        metrics[name] = {name: float(level), f"{name}.max": float(peak)}
    for name, sample in (
        ("queue_wait_ms", queue_wait),
        ("response_ms", response),
        ("execution_ms", execution),
        ("initial_degree", initial_degree),
    ):
        metrics[name] = _histogram(name, sample)
    return {
        key: value
        for name in sorted(metrics)
        for key, value in metrics[name].items()
    }


class Observation:
    """Telemetry of one observed server."""

    def __init__(self) -> None:
        self.tracer = RequestTracer()
        self.decisions = DecisionLog()
        #: rid -> live request, captured at arrival.
        self._requests: dict[int, "Request"] = {}

    def attach(self, server: "Server") -> None:
        """Instrument the server (must be fresh; see ``attach_tracer``)."""
        requests = self._requests

        def on_arrival(request: "Request") -> None:
            requests[request.rid] = request

        attach_tracer(server, tracer=self.tracer, on_arrival=on_arrival)
        if server.policy.observer is None:
            server.policy.observer = self.decisions

    def metrics(self) -> dict[str, float]:
        """The run's metrics, derived from the recorded event stream.

        A fresh pass over the events on every call, so reading it
        mid-run is safe and reflects the events recorded so far.
        """
        return _derive_metrics(self.tracer.events, self._requests)

    @property
    def request_info(self) -> dict[int, RequestInfo]:
        """rid -> ground-truth demand info (captured at arrival)."""
        return {
            rid: RequestInfo(
                predicted_ms=request.predicted_ms,
                demand_ms=request.demand_ms,
            )
            for rid, request in self._requests.items()
        }

    def spans(self) -> list[RequestSpan]:
        """Assemble one span per traced request (rid order)."""
        return assemble_spans(self.tracer)

    def tail_report(
        self,
        percentiles: Sequence[float] = (99.0, 99.9),
        misprediction_factor: float = 1.5,
    ) -> TailReport:
        """Decompose this run's latency tail (see ``attribution``)."""
        return tail_report(
            self.spans(),
            self.request_info,
            percentiles=percentiles,
            misprediction_factor=misprediction_factor,
        )

    def chrome_trace(self, process_name: str = "repro-sim") -> dict:
        """Chrome trace-event document of every traced request."""
        from .export import chrome_trace

        return chrome_trace(
            self.spans(),
            metrics=self.metrics(),
            process_name=process_name,
        )

    def extras(self, prefix: str = "obs") -> dict[str, float]:
        """Scalar telemetry for ``CellResult.extras``."""
        return {
            f"{prefix}.events_traced": float(len(self.tracer)),
            f"{prefix}.dispatch_decisions": float(
                len(self.decisions.dispatches)
            ),
            f"{prefix}.correction_checks": float(len(self.decisions.checks)),
            f"{prefix}.corrections_fired": float(
                self.decisions.corrections_fired
            ),
        }


def observe_cell(
    spec: "CellSpec", observation: Observation | None = None
) -> "tuple[CellResult, Observation]":
    """Run one cell with observation attached.

    The returned :class:`CellResult` is bit-identical to
    ``run_cell(spec)`` on the same spec (observation never perturbs the
    simulation), with the observation's scalar telemetry added under
    ``extras``.  Both run the one cell expansion of
    :mod:`repro.exec.pool`.  Cluster cells are not observable through
    this path yet and raise :class:`~repro.errors.ConfigError` before
    any work.
    """
    from ..exec.pool import _execute_cell

    obs = observation if observation is not None else Observation()
    return _execute_cell(spec, obs), obs
