"""One handle for an observed run: tracer + metrics + decision log.

An :class:`Observation` bundles the three sinks of the observability
layer — a shared :class:`~repro.sim.tracing.RequestTracer`, a
:class:`~repro.obs.registry.MetricRegistry`, and a
:class:`~repro.obs.attribution.DecisionLog` — and attaches them to a
server in one call.  Attachment is strictly additive: an unobserved
server runs the exact same float operations it always did, so goldens
and gate event counts are unchanged when no observation is in play.

The enabled path is kept inside the perf budget (<15 % events/s on
the hot-path benchmark) by doing *nothing but recording* while the
simulation runs: the tracer appends raw events, and ``attach`` hooks
only the per-request arrival to capture the live request object.
Counters, gauges and histograms are derived afterwards by replaying
the event stream the first time the registry is read — same numbers,
zero per-event metric cost.

:func:`observe_cell` runs one declarative
:class:`~repro.exec.spec.CellSpec` with observation attached and
returns both the ordinary :class:`~repro.exec.spec.CellResult`
(bit-identical to ``run_cell`` on the same spec) and the observation.
Observability never joins the spec itself — it does not change
results, so it must not change cache keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..sim.tracing import RequestTracer, TraceEventKind, attach_tracer
from .attribution import DecisionLog, RequestInfo, TailReport, tail_report
from .registry import MetricRegistry
from .spans import RequestSpan, assemble_spans

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.spec import CellResult, CellSpec
    from ..sim.request import Request
    from ..sim.server import Server

__all__ = ["Observation", "observe_cell"]


class _ScopeMetrics:
    """Replay sink deriving one scope's metrics from the event stream."""

    def __init__(self, scope) -> None:
        self.arrivals = scope.counter("arrivals")
        self.dispatches = scope.counter("dispatches")
        self.completions = scope.counter("completions")
        self.cancellations = scope.counter("cancellations")
        self.corrections = scope.counter("degree_raises")
        self.queue_depth = scope.gauge("queue_depth")
        self.running = scope.gauge("running")
        self.queue_wait = scope.histogram("queue_wait_ms")
        self.response = scope.histogram("response_ms")
        self.execution = scope.histogram("execution_ms")
        self.initial_degree = scope.histogram("initial_degree")
        self.scope = scope
        self._queued = 0
        self._running = 0

    def handle(self, event, request: "Request | None") -> None:
        kind = event.kind
        if kind is TraceEventKind.ARRIVAL:
            self.arrivals.value += 1
            self._queued += 1
            self.queue_depth.set(float(self._queued))
        elif kind is TraceEventKind.DISPATCH:
            self.dispatches.value += 1
            self._queued -= 1
            self._running += 1
            self.running.set(float(self._running))
            self.initial_degree.observe(float(event.degree))
            if request is not None:
                self.queue_wait.observe(event.time_ms - request.arrival_ms)
        elif kind is TraceEventKind.DEGREE_CHANGE:
            self.corrections.value += 1
        elif kind is TraceEventKind.COMPLETION:
            self.completions.value += 1
            self._running -= 1
            self.running.set(float(self._running))
            if request is not None:
                self.response.observe(event.time_ms - request.arrival_ms)
                self.execution.observe(event.time_ms - request.start_ms)
        else:  # CANCELLED
            self.cancellations.value += 1
            # Degree 0 means the request was withdrawn while queued.
            if event.degree > 0:
                self._running -= 1
            else:
                self._queued -= 1
            if event.cause is not None:
                self.scope.counter(f"cancelled.{event.cause}").value += 1


class Observation:
    """Aggregated telemetry of one (or several) observed servers."""

    def __init__(self) -> None:
        self.tracer = RequestTracer()
        self.decisions = DecisionLog()
        #: Per attached server: (scope name, rid -> live request).
        self._servers: list[tuple[str | None, dict[int, "Request"]]] = []
        self._registry = MetricRegistry()
        #: Event count the registry was last derived from (-1 = dirty).
        self._metrics_upto = -1

    def attach(self, server: "Server", name: str | None = None) -> None:
        """Instrument one server (must be fresh; see ``attach_tracer``).

        ``name`` scopes the server's metrics (``isn3.completions``);
        without it metrics land at the registry root — the right choice
        for single-server experiments.
        """
        requests: dict[int, "Request"] = {}

        def on_arrival(request: "Request") -> None:
            requests[request.rid] = request

        attach_tracer(server, tracer=self.tracer, on_arrival=on_arrival)
        if server.policy.observer is None:
            server.policy.observer = self.decisions
        self._servers.append((name, requests))
        self._metrics_upto = -1

    def _finalize(self) -> None:
        """(Re)derive the metric registry from the recorded events."""
        n = len(self.tracer)
        if self._metrics_upto == n:
            return
        registry = MetricRegistry()
        sinks: list[_ScopeMetrics] = []
        owner: dict[int, int] = {}
        for i, (name, requests) in enumerate(self._servers):
            scope = registry.scope(name) if name else registry
            sinks.append(_ScopeMetrics(scope))
            for rid in requests:
                owner.setdefault(rid, i)
        if sinks:
            default_sink = sinks[0]
            for event in self.tracer.events:
                rid = event.rid
                index = owner.get(rid)
                sink = sinks[index] if index is not None else default_sink
                sink.handle(
                    event, self._servers[index][1].get(rid)
                    if index is not None
                    else None,
                )
        self._registry = registry
        self._metrics_upto = n

    @property
    def registry(self) -> MetricRegistry:
        """Metrics of the observed run, derived from the event stream.

        Computed lazily on first access after the run (and recomputed
        if more events have been recorded since); reading it mid-run is
        safe but pays a fresh replay.
        """
        self._finalize()
        return self._registry

    @property
    def request_info(self) -> dict[int, RequestInfo]:
        """rid -> ground-truth demand info (captured at arrival)."""
        return {
            rid: RequestInfo(
                predicted_ms=request.predicted_ms,
                demand_ms=request.demand_ms,
            )
            for _, requests in self._servers
            for rid, request in requests.items()
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
            metrics=self.registry.snapshot(),
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
