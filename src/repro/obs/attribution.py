"""Policy-decision attribution and tail-latency decomposition.

Two halves:

* :class:`DecisionLog` is the duck-typed observer the policy layer
  calls into (``ParallelismPolicy.observer``).  Every Pred/TP/TPC
  dispatch records the predicted demand, the realized demand, and —
  for the target-driven policies — the load reading and target E that
  produced the degree.  Every TPC correction check records its trigger
  state: how long the request had been executing versus its target,
  how many spare workers were available, and what the controller did.

* :func:`tail_report` joins request spans with per-request demand info
  and decomposes the P99/P99.9 tail into attribution buckets: requests
  slow because they *queued*, because their degree was chosen from a
  *misprediction* and correction never fired, because correction fired
  but *too late* to save them, or because they were *inherently* long.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..errors import SimulationError
from .spans import RequestSpan, SpanCause

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.request import Request
    from ..sim.server import Server

__all__ = [
    "DispatchDecision",
    "CorrectionCheck",
    "DecisionLog",
    "RequestInfo",
    "TailBucket",
    "TailSlice",
    "TailReport",
    "classify_span",
    "tail_report",
    "render_tail_report",
]


class DispatchDecision(NamedTuple):
    """One policy dispatch: what was predicted, what was chosen, why.

    A NamedTuple: one is built per dispatch on the live path of the
    observed policies.
    """

    rid: int
    time_ms: float
    degree: int
    predicted_ms: float
    demand_ms: float
    #: Target E at dispatch (None for load-blind policies like Pred).
    target_ms: float | None
    #: Load-metric reading that selected the target (None for Pred).
    load: float | None


class CorrectionCheck(NamedTuple):
    """One correction-timer firing: the trigger state and the outcome."""

    rid: int
    time_ms: float
    #: Execution time elapsed when the timer fired.
    elapsed_ms: float
    #: The request's target E (the paper's trigger threshold).
    target_ms: float | None
    #: Spare capacity the controller saw (idle workers or hardware).
    spare_workers: int
    #: Degree the controller raised to, or None if it could not act.
    new_degree: int | None
    #: Whether the controller scheduled another check.
    will_recheck: bool


class DecisionLog:
    """Observer sink for policy decisions (see ``ParallelismPolicy.observer``).

    Implements exactly the two duck-typed hooks the policies call:
    ``on_dispatch_decision`` and ``on_correction_check``.
    """

    def __init__(self) -> None:
        self.dispatches: list[DispatchDecision] = []
        self.checks: list[CorrectionCheck] = []

    def on_dispatch_decision(
        self,
        request: "Request",
        server: "Server",
        degree: int,
        target_ms: float | None = None,
        load: float | None = None,
    ) -> None:
        self.dispatches.append(
            DispatchDecision(
                rid=request.rid,
                time_ms=server.now,
                degree=degree,
                predicted_ms=request.predicted_ms,
                demand_ms=request.demand_ms,
                target_ms=target_ms,
                load=load,
            )
        )

    def on_correction_check(
        self,
        request: "Request",
        server: "Server",
        elapsed_ms: float,
        target_ms: float | None,
        spare_workers: int,
        new_degree: int | None,
        will_recheck: bool,
    ) -> None:
        self.checks.append(
            CorrectionCheck(
                rid=request.rid,
                time_ms=server.now,
                elapsed_ms=elapsed_ms,
                target_ms=target_ms,
                spare_workers=spare_workers,
                new_degree=new_degree,
                will_recheck=will_recheck,
            )
        )

    @property
    def corrections_fired(self) -> int:
        """Checks that actually raised a degree."""
        return sum(1 for c in self.checks if c.new_degree is not None)


class RequestInfo(NamedTuple):
    """Ground-truth demand info joined against a span for attribution.

    A NamedTuple: one is built per request at arrival, on the traced
    hot path.
    """

    predicted_ms: float
    demand_ms: float


class TailBucket(enum.Enum):
    """Why a tail request was slow."""

    #: Dominated by queueing delay before execution even began.
    QUEUEING = "queueing"
    #: Under-predicted demand got an under-sized degree and no
    #: correction ever raised it.
    MISPREDICTED_DEGREE = "mispredicted-degree"
    #: Under-predicted demand; correction did raise the degree, but the
    #: request still landed in the tail — help arrived too late.
    CORRECTION_TOO_LATE = "correction-too-late"
    #: Correctly predicted long work: slow because the work is big.
    INHERENT = "inherent"


@dataclass(frozen=True)
class TailSlice:
    """The attribution breakdown at one percentile."""

    percentile: float
    threshold_ms: float
    n_tail: int
    #: Bucket -> number of tail requests attributed to it.
    counts: dict[TailBucket, int]
    #: Bucket -> a few example rids (worst first) for drill-down.
    examples: dict[TailBucket, tuple[int, ...]]


@dataclass(frozen=True)
class TailReport:
    """Tail decomposition over the completed spans of one run."""

    n_completed: int
    slices: tuple[TailSlice, ...] = field(default_factory=tuple)

    def slice_at(self, percentile: float) -> TailSlice:
        for s in self.slices:
            if s.percentile == percentile:
                return s
        raise SimulationError(f"no tail slice at p{percentile:g}")


def classify_span(
    span: RequestSpan,
    info: RequestInfo | None,
    misprediction_factor: float = 1.5,
) -> TailBucket:
    """Attribute one tail span to a bucket.

    The order matters: queueing dominates (the degree decision never had
    a chance), then misprediction with/without a correction raise, then
    inherent length as the residual.
    """
    response = span.response_ms
    if response > 0 and span.queue_wait_ms >= 0.5 * response:
        return TailBucket.QUEUEING
    if info is not None and info.demand_ms > info.predicted_ms * (
        misprediction_factor
    ):
        if span.corrected:
            return TailBucket.CORRECTION_TOO_LATE
        return TailBucket.MISPREDICTED_DEGREE
    return TailBucket.INHERENT


def tail_report(
    spans: Iterable[RequestSpan],
    request_info: Mapping[int, RequestInfo] | None = None,
    percentiles: Sequence[float] = (99.0, 99.9),
    misprediction_factor: float = 1.5,
    n_examples: int = 5,
) -> TailReport:
    """Decompose the latency tail of ``spans`` into attribution buckets.

    For each percentile, takes the completed spans at or above that
    response-time threshold and classifies each via
    :func:`classify_span`.  ``request_info`` (rid -> ground truth, as
    collected by :class:`repro.obs.observe.Observation`) enables the
    misprediction buckets; without it everything non-queueing is
    INHERENT.
    """
    completed = [s for s in spans if s.cause is SpanCause.COMPLETED]
    if not completed:
        return TailReport(n_completed=0)
    responses = np.asarray([s.response_ms for s in completed], dtype=np.float64)
    info = request_info or {}
    slices: list[TailSlice] = []
    for p in percentiles:
        threshold = float(np.percentile(responses, p))
        tail = [s for s in completed if s.response_ms >= threshold]
        tail.sort(key=lambda s: s.response_ms, reverse=True)
        counts = {bucket: 0 for bucket in TailBucket}
        examples: dict[TailBucket, list[int]] = {b: [] for b in TailBucket}
        for span in tail:
            bucket = classify_span(
                span, info.get(span.rid), misprediction_factor
            )
            counts[bucket] += 1
            if len(examples[bucket]) < n_examples:
                examples[bucket].append(span.rid)
        slices.append(
            TailSlice(
                percentile=float(p),
                threshold_ms=threshold,
                n_tail=len(tail),
                counts=counts,
                examples={b: tuple(r) for b, r in examples.items()},
            )
        )
    return TailReport(n_completed=len(completed), slices=tuple(slices))


def render_tail_report(report: TailReport) -> str:
    """Plain-text rendering of a :class:`TailReport`."""
    lines = [f"Tail attribution over {report.n_completed} completed requests"]
    if not report.slices:
        lines.append("  (no completed requests - nothing to attribute)")
        return "\n".join(lines)
    for s in report.slices:
        lines.append(
            f"  P{s.percentile:g} (>= {s.threshold_ms:.1f} ms, "
            f"{s.n_tail} requests):"
        )
        for bucket in TailBucket:
            n = s.counts.get(bucket, 0)
            if not n:
                continue
            share = 100.0 * n / s.n_tail if s.n_tail else 0.0
            rids = ", ".join(str(r) for r in s.examples.get(bucket, ()))
            suffix = f"  e.g. rid {rids}" if rids else ""
            lines.append(
                f"    {bucket.value:<22} {n:>5}  ({share:5.1f} %){suffix}"
            )
    return "\n".join(lines)
