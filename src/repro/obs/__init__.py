"""Unified observability layer: spans, metrics, attribution, export.

Zero-cost when disabled: nothing here runs unless an
:class:`Observation` (or a bare tracer) is explicitly attached to a
server, and an unobserved server executes exactly the float operations
it always did — goldens and gate event counts are unchanged.

The pieces:

``spans``
    :func:`assemble_spans` — per-request spans (queue wait, one
    segment per parallelism degree, terminal cause) built from the
    tracer's event stream.
``attribution``
    :class:`DecisionLog` — the policy observer recording predicted vs
    realized demand per dispatch and the trigger state of every
    correction check; :func:`tail_report` — P99/P99.9 decomposition
    into queueing / mispredicted-degree / correction-too-late /
    inherent buckets.
``export``
    Chrome trace-event JSON (:func:`chrome_trace`), its validator, and
    ASCII timeline rendering.
``observe``
    :class:`Observation` — one handle bundling the tracer and the
    decision log; :meth:`Observation.metrics` derives counters, levels
    and histograms in one pass over the recorded events;
    :func:`observe_cell` — run a declarative cell observed, results
    bit-identical to the unobserved path.
"""

from .attribution import (
    CorrectionCheck,
    DecisionLog,
    DispatchDecision,
    RequestInfo,
    TailBucket,
    TailReport,
    classify_span,
    render_tail_report,
    tail_report,
)
from .export import (
    chrome_trace,
    render_timeline,
    render_timelines,
    validate_chrome_trace,
    write_chrome_trace,
)
from .observe import Observation, observe_cell
from .spans import RequestSpan, Segment, SpanCause, assemble_spans, slowest_spans

__all__ = [
    "RequestSpan",
    "Segment",
    "SpanCause",
    "assemble_spans",
    "slowest_spans",
    "DispatchDecision",
    "CorrectionCheck",
    "DecisionLog",
    "RequestInfo",
    "TailBucket",
    "TailReport",
    "classify_span",
    "tail_report",
    "render_tail_report",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "render_timeline",
    "render_timelines",
    "Observation",
    "observe_cell",
]
