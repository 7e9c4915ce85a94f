"""Tests for the request-timeline tracer."""

import pytest

from repro.config import ServerConfig
from repro.core.target_table import TargetTable
from repro.errors import SimulationError
from repro.policies import TPCPolicy
from repro.sim.client import OpenLoopClient
from repro.sim.engine import Engine
from repro.sim.server import Server
from repro.sim.tracing import (
    RequestTracer,
    TraceEvent,
    TraceEventKind,
    attach_tracer,
)

from conftest import LONG_PROFILE, make_request, run_until, validate_trace
from test_server import FixedDegreePolicy


def traced_server(policy, **kwargs):
    cfg = ServerConfig(**kwargs) if kwargs else ServerConfig()
    server = Server(cfg, policy, engine=Engine())
    tracer = attach_tracer(server)
    return server, tracer


class TestTimeline:
    def test_simple_lifecycle(self):
        server, tracer = traced_server(FixedDegreePolicy(2))
        req = make_request(0, 20.0)
        server.submit(req)
        server.run_to_completion(1)
        kinds = [e.kind for e in tracer.timeline(0)]
        assert kinds == [
            TraceEventKind.ARRIVAL,
            TraceEventKind.DISPATCH,
            TraceEventKind.COMPLETION,
        ]

    def test_dispatch_records_chosen_degree(self):
        server, tracer = traced_server(FixedDegreePolicy(4))
        server.submit(make_request(0, 20.0))
        dispatch = tracer.timeline(0)[1]
        assert dispatch.kind is TraceEventKind.DISPATCH
        assert dispatch.degree == 4

    def test_queued_request_dispatches_later(self):
        server, tracer = traced_server(
            FixedDegreePolicy(1), worker_threads=1, max_parallelism=1
        )
        server.submit(make_request(0, 30.0))
        server.submit(make_request(1, 10.0))
        server.run_to_completion(2)
        timeline = tracer.timeline(1)
        arrival, dispatch = timeline[0], timeline[1]
        assert dispatch.time_ms == pytest.approx(30.0)
        assert arrival.time_ms == pytest.approx(dispatch.time_ms - 30.0, abs=1)

    def test_correction_appears_as_degree_change(self, speedup_book):
        table = TargetTable.constant(40.0)
        policy = TPCPolicy(table, speedup_book)
        server = Server(ServerConfig(), policy, engine=Engine())
        tracer = attach_tracer(server)
        req = make_request(0, 200.0, predicted_ms=10.0, profile=LONG_PROFILE)
        server.submit(req)
        server.run_to_completion(1)
        changes = [
            e
            for e in tracer.timeline(0)
            if e.kind is TraceEventKind.DEGREE_CHANGE
        ]
        assert changes, "correction should have changed the degree"
        assert changes[0].time_ms == pytest.approx(40.0, abs=1.0)  # fired at E
        assert changes[0].degree == 6

    def test_validate_accepts_real_run(self):
        server, tracer = traced_server(FixedDegreePolicy(2))
        for i in range(20):
            server.submit(make_request(i, 5.0 + i))
        server.run_to_completion(20)
        validate_trace(tracer)
        assert tracer.requests_traced() == set(range(20))

    def test_running_cancellation_recorded(self):
        server, tracer = traced_server(FixedDegreePolicy(2))
        req = make_request(0, 50.0)
        server.submit(req)
        run_until(server.engine, 10.0)
        server.cancel_request(req)
        kinds = [e.kind for e in tracer.timeline(0)]
        assert kinds == [
            TraceEventKind.ARRIVAL,
            TraceEventKind.DISPATCH,
            TraceEventKind.CANCELLED,
        ]
        cancelled = tracer.timeline(0)[-1]
        assert cancelled.time_ms == pytest.approx(10.0)
        assert cancelled.degree == 2  # degree held at cancellation time
        validate_trace(tracer)

    def test_queued_cancellation_skips_dispatch(self):
        server, tracer = traced_server(
            FixedDegreePolicy(1), worker_threads=1, max_parallelism=1
        )
        server.submit(make_request(0, 30.0))
        queued = make_request(1, 10.0)
        server.submit(queued)
        server.cancel_request(queued)
        kinds = [e.kind for e in tracer.timeline(1)]
        assert kinds == [TraceEventKind.ARRIVAL, TraceEventKind.CANCELLED]
        server.run_to_completion(1)
        validate_trace(tracer)


class TestValidation:
    def test_detects_events_after_completion(self):
        tracer = RequestTracer()
        tracer.record(0.0, 1, TraceEventKind.ARRIVAL, 0)
        tracer.record(1.0, 1, TraceEventKind.DISPATCH, 1)
        tracer.record(2.0, 1, TraceEventKind.COMPLETION, 1)
        tracer.record(3.0, 1, TraceEventKind.DEGREE_CHANGE, 2)
        with pytest.raises(SimulationError):
            validate_trace(tracer)

    def test_detects_degree_change_before_dispatch(self):
        tracer = RequestTracer()
        tracer.record(0.0, 1, TraceEventKind.ARRIVAL, 0)
        tracer.record(1.0, 1, TraceEventKind.DEGREE_CHANGE, 2)
        with pytest.raises(SimulationError):
            validate_trace(tracer)

    def test_detects_non_monotone_times(self):
        tracer = RequestTracer()
        tracer.record(5.0, 1, TraceEventKind.ARRIVAL, 0)
        tracer.record(1.0, 1, TraceEventKind.DISPATCH, 1)
        with pytest.raises(SimulationError):
            validate_trace(tracer)

    def test_cancel_cause_recorded(self):
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        tracer = attach_tracer(server)
        req = make_request(0, 50.0)
        server.submit(req)
        run_until(server.engine, 10.0)
        server.cancel_request(req, cause="hedge-superseded")
        cancelled = tracer.timeline(0)[-1]
        assert cancelled.kind is TraceEventKind.CANCELLED
        assert cancelled.cause == "hedge-superseded"

    def test_timeline_index_matches_full_scan(self):
        # The lazy per-rid index (satellite: O(own events) timelines)
        # must agree with a brute-force scan, including when queries
        # interleave with new recordings.
        server, tracer = traced_server(
            FixedDegreePolicy(1), worker_threads=2, max_parallelism=2
        )
        for i in range(10):
            server.submit(make_request(i, 5.0 + 3 * i))
        run_until(server.engine, 20.0)
        mid = tracer.timeline(0)  # force an index build mid-run
        assert mid == [e for e in tracer.events if e.rid == 0]
        server.run_to_completion(10)
        for rid in tracer.requests_traced():
            assert tracer.timeline(rid) == [
                e for e in tracer.events if e.rid == rid
            ]

    def test_attach_after_schedule_trace_traces_every_arrival(self, rng):
        # Arrivals are scheduled before the tracer wraps server.submit;
        # the client must still reach the wrapper, not the original.
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=Engine())
        requests = [make_request(i, 2.0 + i % 3) for i in range(12)]
        OpenLoopClient(server).schedule_trace(
            server.engine, requests, qps=400.0, rng=rng
        )
        tracer = attach_tracer(server)
        server.run_to_completion(len(requests))
        arrivals = [
            (e.time_ms, e.rid)
            for e in tracer.events
            if e.kind is TraceEventKind.ARRIVAL
        ]
        assert arrivals == [(r.arrival_ms, r.rid) for r in requests]
        validate_trace(tracer)

    def test_attach_requires_fresh_server(self):
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=Engine())
        server.submit(make_request(0, 5.0))
        with pytest.raises(SimulationError):
            attach_tracer(server)

    def test_detects_events_after_cancellation(self):
        tracer = RequestTracer()
        tracer.record(0.0, 1, TraceEventKind.ARRIVAL, 0)
        tracer.record(1.0, 1, TraceEventKind.DISPATCH, 1)
        tracer.record(2.0, 1, TraceEventKind.CANCELLED, 1)
        tracer.record(3.0, 1, TraceEventKind.COMPLETION, 1)
        with pytest.raises(SimulationError):
            validate_trace(tracer)

    def test_validator_covers_every_event_kind(self):
        # The validator's stage map must stay exhaustive: a new
        # TraceEventKind without ordering rules would silently KeyError
        # inside validate_trace() instead of being checked.
        tracer = RequestTracer()
        for rid, kind in enumerate(TraceEventKind):
            if kind is not TraceEventKind.ARRIVAL:
                tracer.record(0.0, rid, TraceEventKind.ARRIVAL, 0)
            if kind in (
                TraceEventKind.DEGREE_CHANGE,
                TraceEventKind.COMPLETION,
            ):
                tracer.record(0.5, rid, TraceEventKind.DISPATCH, 1)
            tracer.record(1.0, rid, kind, 1)
        validate_trace(tracer)

    def test_event_str(self):
        event = TraceEvent(1.5, 7, TraceEventKind.DISPATCH, 3)
        assert "request 7" in str(event)
        assert "dispatch" in str(event)
