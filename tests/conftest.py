"""Shared fixtures: cheap workloads, canonical profiles, helpers."""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.core.speedup import SpeedupBook, SpeedupProfile
from repro.core.target_table import TargetTable
from repro.errors import SimulationError
from repro.exec import WorkloadSpec, memoised_workload
from repro.experiments.scenarios import TINY_WORKLOAD_SPEC
from repro.finance import build_finance_workload
from repro.sim.engine import Engine
from repro.sim.request import Request
from repro.sim.tracing import RequestTracer, TraceEventKind


SHORT_PROFILE = SpeedupProfile([1.0, 1.05, 1.08, 1.11, 1.14, 1.16])
MID_PROFILE = SpeedupProfile([1.0, 1.4, 1.6, 1.8, 1.95, 2.05])
LONG_PROFILE = SpeedupProfile([1.0, 1.8, 2.5, 3.2, 3.7, 4.1])


@pytest.fixture(scope="session")
def speedup_book() -> SpeedupBook:
    """The paper's three-group speedup book (Figure 2 values)."""
    return SpeedupBook([SHORT_PROFILE, MID_PROFILE, LONG_PROFILE])


@pytest.fixture(scope="session")
def target_table() -> TargetTable:
    """A small adaptive target table for policy tests."""
    return TargetTable([(0, 40), (4, 50), (8, 65), (16, 90), (32, 130)])


@pytest.fixture()
def server_config() -> ServerConfig:
    """The paper's ISN hardware model."""
    return ServerConfig()


@pytest.fixture(scope="session")
def tiny_workload_spec() -> WorkloadSpec:
    """Recipe of :func:`tiny_search_workload` (no on-disk build cache)."""
    return dataclasses.replace(TINY_WORKLOAD_SPEC, use_workload_cache=False)


@pytest.fixture(scope="session")
def tiny_search_workload(tiny_workload_spec):
    """A small but complete search workload: the exec memo's copy, so
    cells declared on :func:`tiny_workload_spec` reuse it."""
    return memoised_workload(tiny_workload_spec)


@pytest.fixture(scope="session")
def finance_workload():
    """The Section 5.1 finance workload."""
    return build_finance_workload()


def make_request(
    rid: int,
    demand_ms: float,
    predicted_ms: float | None = None,
    profile: SpeedupProfile = LONG_PROFILE,
) -> Request:
    """Build a request with sensible defaults for unit tests."""
    return Request(
        rid=rid,
        demand_ms=demand_ms,
        predicted_ms=demand_ms if predicted_ms is None else predicted_ms,
        speedup=profile,
    )


def run_until(engine: Engine, time: float) -> None:
    """Run all events scheduled at or before ``time``, then advance the
    clock to ``time`` even if no event lands exactly there."""
    heap = engine._heap
    while heap:
        head = heap[0]
        if head[2].seq != head[1]:  # cancelled or re-armed: drop it
            heapq.heappop(heap)
            continue
        if head[0] > time:
            break
        engine.step()
    engine.now = max(engine.now, time)


#: Timeline stage of each event kind, in the order a request may pass them.
_STAGES = {
    TraceEventKind.ARRIVAL: 0,
    TraceEventKind.DISPATCH: 1,
    TraceEventKind.DEGREE_CHANGE: 2,
    TraceEventKind.COMPLETION: 3,
    TraceEventKind.CANCELLED: 3,
}


def validate_trace(tracer: RequestTracer) -> None:
    """Check per-request event-order invariants.

    Raises :class:`SimulationError` on a malformed timeline (e.g.
    dispatch before arrival, events after completion).
    """
    last_time: dict[int, float] = {}
    last_stage: dict[int, int] = {}
    done: set[int] = set()
    for event in tracer.events:
        if event.rid in done:
            raise SimulationError(f"request {event.rid} has events after completion")
        if event.time_ms < last_time.get(event.rid, float("-inf")) - 1e-9:
            raise SimulationError(f"request {event.rid} timeline is not monotone")
        stage = _STAGES[event.kind]
        previous = last_stage.get(event.rid, -1)
        if event.kind is TraceEventKind.DEGREE_CHANGE:
            if previous < _STAGES[TraceEventKind.DISPATCH]:
                raise SimulationError(
                    f"request {event.rid} changed degree before dispatch"
                )
        elif stage <= previous:
            raise SimulationError(
                f"request {event.rid} repeated stage {event.kind.value}"
            )
        last_time[event.rid] = event.time_ms
        last_stage[event.rid] = max(previous, stage)
        if event.kind in (TraceEventKind.COMPLETION, TraceEventKind.CANCELLED):
            done.add(event.rid)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic generator for tests."""
    return np.random.default_rng(123)
