"""Discrete-event simulation substrate.

This package models one index-serving node (ISN): a multi-core server
with a fixed worker-thread pool, a FIFO waiting queue, processor sharing
across active threads, and per-request parallelism degrees that a policy
may change mid-flight.  It replaces the paper's physical 24-hardware-
thread Xeon testbed (see DESIGN.md for the substitution argument).
"""

from .engine import Engine, EventHandle
from .request import Request, RequestState
from .server import Server
from .client import OpenLoopClient
from .metrics import (
    LatencyRecorder,
    ResilienceStats,
    percentile,
    weighted_tail_latency,
)
from .load import LoadMetric, load_value
from .tracing import RequestTracer, attach_tracer

__all__ = [
    "LoadMetric",
    "load_value",
    "RequestTracer",
    "attach_tracer",
    "Engine",
    "EventHandle",
    "Request",
    "RequestState",
    "Server",
    "OpenLoopClient",
    "LatencyRecorder",
    "ResilienceStats",
    "percentile",
    "weighted_tail_latency",
]
