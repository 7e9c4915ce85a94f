"""Tests for the unified observability layer (repro.obs)."""

import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.core.target_table import TargetTable
from repro.errors import ConfigError, SimulationError
from repro.exec import CellSpec, run_cell
from repro.exec.pool import memoised_workload
from repro.experiments.runner import run_search_experiment
from repro.experiments.scenarios import TINY_TARGET_TABLE, TINY_WORKLOAD_SPEC
from repro.obs import (
    DecisionLog,
    Observation,
    RequestInfo,
    SpanCause,
    TailBucket,
    assemble_spans,
    chrome_trace,
    classify_span,
    observe_cell,
    render_tail_report,
    render_timeline,
    slowest_spans,
    tail_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.spans import RequestSpan, Segment
from repro.policies import TPCPolicy
from repro.policies.base import ParallelismPolicy
from repro.sim.engine import Engine
from repro.sim.server import Server
from repro.sim.tracing import TraceEventKind, attach_tracer

from conftest import LONG_PROFILE, make_request
from test_server import FixedDegreePolicy


def tiny_cell(policy: str = "TPC", **kwargs) -> CellSpec:
    wspec = dataclasses.replace(TINY_WORKLOAD_SPEC, use_workload_cache=False)
    kwargs.setdefault("n_requests", 200)
    kwargs.setdefault("seed", 5)
    kwargs.setdefault("target_table", TINY_TARGET_TABLE)
    return CellSpec.for_experiment(wspec, policy, 300.0, **kwargs)


class TestSpans:
    def test_spans_from_real_run(self):
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        tracer = attach_tracer(server)
        for i in range(5):
            server.submit(make_request(i, 10.0 + i))
        server.run_to_completion(5)
        spans = assemble_spans(tracer)
        assert [s.rid for s in spans] == list(range(5))
        for span in spans:
            assert span.cause is SpanCause.COMPLETED
            assert span.initial_degree == 2
            assert span.response_ms >= span.execution_ms >= 0
            assert not span.corrected

    def test_correction_yields_two_segments(self, speedup_book):
        policy = TPCPolicy(TargetTable.constant(40.0), speedup_book)
        server = Server(ServerConfig(), policy, engine=Engine())
        tracer = attach_tracer(server)
        server.submit(
            make_request(0, 200.0, predicted_ms=10.0, profile=LONG_PROFILE)
        )
        server.run_to_completion(1)
        (span,) = assemble_spans(tracer)
        assert span.corrected
        assert span.degree_raises == 1
        assert span.max_degree > span.initial_degree
        # Segments tile dispatch..end without gaps.
        assert span.segments[0].start_ms == span.dispatch_ms
        assert span.segments[0].end_ms == span.segments[1].start_ms
        assert span.segments[-1].end_ms == span.end_ms

    def test_hedge_superseded_cause(self):
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        tracer = attach_tracer(server)
        req = make_request(0, 50.0)
        server.submit(req)
        server.engine.run_until(10.0)
        server.cancel_request(req, cause="hedge-superseded")
        (span,) = assemble_spans(tracer)
        assert span.cause is SpanCause.HEDGE_SUPERSEDED
        assert span.cause.terminal

    def test_open_span_when_truncated(self):
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        tracer = attach_tracer(server)
        server.submit(make_request(0, 50.0))
        server.engine.run_until(10.0)  # still running: no terminal event
        (span,) = assemble_spans(tracer)
        assert span.cause is SpanCause.OPEN
        assert not span.cause.terminal
        with pytest.raises(SimulationError, match="open"):
            span.response_ms

    def test_slowest_spans_skips_open(self):
        done = RequestSpan(
            rid=0,
            arrival_ms=0.0,
            dispatch_ms=1.0,
            end_ms=9.0,
            cause=SpanCause.COMPLETED,
            segments=(Segment(1.0, 9.0, 2),),
        )
        still_open = dataclasses.replace(
            done, rid=1, end_ms=None, cause=SpanCause.OPEN
        )
        assert slowest_spans([done, still_open], n=2) == [done]


def _span(rid, queue_ms, run_ms, corrected=False):
    dispatch = queue_ms
    end = queue_ms + run_ms
    if corrected:
        segments = (
            Segment(dispatch, dispatch + run_ms / 2, 2),
            Segment(dispatch + run_ms / 2, end, 4),
        )
    else:
        segments = (Segment(dispatch, end, 2),)
    return RequestSpan(
        rid=rid,
        arrival_ms=0.0,
        dispatch_ms=dispatch,
        end_ms=end,
        cause=SpanCause.COMPLETED,
        segments=segments,
    )


class TestAttribution:
    def test_classify_buckets(self):
        good = RequestInfo(predicted_ms=50.0, demand_ms=50.0)
        under = RequestInfo(predicted_ms=10.0, demand_ms=60.0)
        assert (
            classify_span(_span(0, 30.0, 10.0), good) is TailBucket.QUEUEING
        )
        assert (
            classify_span(_span(1, 0.0, 60.0), under)
            is TailBucket.MISPREDICTED_DEGREE
        )
        assert (
            classify_span(_span(2, 0.0, 60.0, corrected=True), under)
            is TailBucket.CORRECTION_TOO_LATE
        )
        assert (
            classify_span(_span(3, 0.0, 60.0), good) is TailBucket.INHERENT
        )
        # No ground truth: everything non-queueing is inherent.
        assert classify_span(_span(4, 0.0, 60.0), None) is TailBucket.INHERENT

    def test_tail_report_counts_sum(self):
        spans = [_span(i, 0.0, float(10 + i)) for i in range(100)]
        report = tail_report(spans, percentiles=(90.0,))
        s = report.slice_at(90.0)
        assert report.n_completed == 100
        assert sum(s.counts.values()) == s.n_tail
        assert s.n_tail >= 10
        with pytest.raises(SimulationError):
            report.slice_at(50.0)

    def test_tail_report_empty(self):
        report = tail_report([])
        assert report.n_completed == 0
        assert "nothing to attribute" in render_tail_report(report)

    def test_render_names_buckets(self):
        spans = [_span(i, 30.0 if i > 95 else 0.0, 10.0) for i in range(100)]
        text = render_tail_report(tail_report(spans, percentiles=(95.0,)))
        assert "queueing" in text
        assert "P95" in text

    def test_decision_log_on_real_tpc_run(self, speedup_book):
        policy = TPCPolicy(TargetTable.constant(40.0), speedup_book)
        log = DecisionLog()
        policy.observer = log
        server = Server(ServerConfig(), policy, engine=Engine())
        server.submit(
            make_request(0, 200.0, predicted_ms=10.0, profile=LONG_PROFILE)
        )
        server.run_to_completion(1)
        (decision,) = log.dispatches
        assert decision.rid == 0
        assert decision.predicted_ms == 10.0
        assert decision.demand_ms == 200.0
        assert decision.target_ms == pytest.approx(40.0)
        assert log.checks, "TPC should have run a correction check"
        assert all(c.rid == 0 for c in log.checks)
        assert log.corrections_fired >= 1
        fired = [c for c in log.checks if c.new_degree is not None]
        assert fired[0].elapsed_ms == pytest.approx(40.0, abs=1.0)

    def test_policy_observer_defaults_to_none(self):
        assert ParallelismPolicy.observer is None


class TestChromeTrace:
    def _trace_doc(self):
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        tracer = attach_tracer(server)
        for i in range(4):
            server.submit(make_request(i, 10.0 + 5 * i))
        victim = make_request(4, 100.0)
        server.submit(victim)
        server.engine.run_until(5.0)
        server.cancel_request(victim, cause="hedge-superseded")
        server.run_to_completion(4)
        return chrome_trace(
            assemble_spans(tracer), metrics={"completions": 4.0}
        )

    def test_document_is_json_and_balanced(self, tmp_path):
        doc = self._trace_doc()
        n = validate_chrome_trace(doc)
        assert n == len(doc["traceEvents"])
        path = tmp_path / "trace.json"
        with open(path, "w", encoding="utf-8") as fp:
            write_chrome_trace(fp, doc)
        loaded = json.load(open(path, encoding="utf-8"))
        assert validate_chrome_trace(loaded) == n
        assert loaded["metrics"] == {"completions": 4.0}

    def test_cancellation_gets_instant_marker(self):
        doc = self._trace_doc()
        instants = [
            e for e in doc["traceEvents"] if e["ph"] == "i"
        ]
        assert len(instants) == 1
        assert instants[0]["args"]["cause"] == "hedge-superseded"

    def test_timestamps_monotone_per_thread(self):
        doc = self._trace_doc()
        last = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, float("-inf"))
            last[key] = event["ts"]

    def test_rejects_unbalanced_begin(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 0, "pid": 0, "tid": 0}
            ]
        }
        with pytest.raises(SimulationError, match="unbalanced"):
            validate_chrome_trace(doc)

    def test_rejects_mismatched_end(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 0, "pid": 0, "tid": 0},
                {"name": "b", "ph": "E", "ts": 1, "pid": 0, "tid": 0},
            ]
        }
        with pytest.raises(SimulationError, match="nesting"):
            validate_chrome_trace(doc)

    def test_rejects_backwards_timestamps(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 5, "pid": 0, "tid": 0},
                {"name": "a", "ph": "E", "ts": 1, "pid": 0, "tid": 0},
            ]
        }
        with pytest.raises(SimulationError, match="backwards"):
            validate_chrome_trace(doc)

    def test_rejects_non_document(self):
        with pytest.raises(SimulationError):
            validate_chrome_trace([1, 2, 3])

    def test_render_timeline_shows_phases(self):
        span = _span(7, queue_ms=10.0, run_ms=20.0, corrected=True)
        text = render_timeline(span, width=30)
        assert "rid 7" in text
        assert "queued" in text
        assert "d=2" in text and "d=4" in text
        assert "#" in text and "." in text


class TestObservation:
    def test_observed_run_metrics_match_trace(self, speedup_book):
        policy = TPCPolicy(TargetTable.constant(40.0), speedup_book)
        obs = Observation()
        server = Server(ServerConfig(), policy, engine=Engine())
        obs.attach(server)
        for i in range(10):
            server.submit(
                make_request(
                    i, 30.0 + 10 * i, predicted_ms=30.0, profile=LONG_PROFILE
                )
            )
        server.run_to_completion(10)
        snap = obs.metrics()
        assert snap["arrivals"] == 10.0
        assert snap["completions"] == 10.0
        assert snap["response_ms.count"] == 10.0
        assert server.policy.observer is obs.decisions
        assert len(obs.decisions.dispatches) == 10
        info = obs.request_info
        assert len(info) == 10
        assert info[0].predicted_ms == 30.0
        report = obs.tail_report(percentiles=(50.0,))
        assert report.n_completed == 10

    def test_cancellation_metrics(self):
        obs = Observation()
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        obs.attach(server)
        req = make_request(0, 50.0)
        server.submit(req)
        server.engine.run_until(5.0)
        server.cancel_request(req, cause="blackout")
        snap = obs.metrics()
        assert snap["cancellations"] == 1.0
        assert snap["cancelled.blackout"] == 1.0
        assert snap["completions"] == 0.0
        # The levels after the last event: nothing queued or running.
        assert server.running_count == server.queue_length == 0
        assert snap["running"] == snap["queue_depth"] == 0.0
        assert snap["running.max"] == snap["queue_depth.max"] == 1.0

    def test_extras_keys(self):
        obs = Observation()
        extras = obs.extras()
        for key in (
            "obs.events_traced",
            "obs.dispatch_decisions",
            "obs.correction_checks",
            "obs.corrections_fired",
        ):
            assert key in extras


class TestObserveCell:
    @pytest.fixture(scope="class")
    def observed_pair(self):
        spec = tiny_cell()
        return spec, run_cell(spec), observe_cell(spec)

    def test_bit_identical_to_run_cell(self, observed_pair):
        _, plain, (observed, _) = observed_pair
        for f in dataclasses.fields(plain):
            a = getattr(plain, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, getattr(observed, f.name)), f.name
        assert plain.summary.p99_ms == observed.summary.p99_ms

    def test_extras_and_trace_populated(self, observed_pair):
        spec, _, (observed, obs) = observed_pair
        assert observed.extras["obs.events_traced"] == len(obs.tracer)
        obs.tracer.validate()
        spans = obs.spans()
        assert len(spans) == spec.n_requests
        doc = obs.chrome_trace()
        assert validate_chrome_trace(doc) > 0
        assert "metrics" in doc
        buf = io.StringIO()
        write_chrome_trace(buf, doc)
        json.loads(buf.getvalue())

    def test_observed_outputs_pinned(self, observed_pair):
        # sha256 of the observed path's three outputs on the tiny TPC
        # cell: the Chrome trace, the metric snapshot and the policy
        # decision lists.  A refactor of tracing, metrics or attribution
        # that claims an identical observed run must leave all three
        # unchanged.
        _, _, (_, obs) = observed_pair
        trace = io.StringIO()
        write_chrome_trace(trace, obs.chrome_trace())
        snapshot = json.dumps(obs.metrics(), sort_keys=True)
        decisions = json.dumps(
            [
                [list(d) for d in obs.decisions.dispatches],
                [list(c) for c in obs.decisions.checks],
            ]
        )
        digests = {
            name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in (
                ("chrome_trace", trace.getvalue()),
                ("snapshot", snapshot),
                ("decisions", decisions),
            )
        }
        assert digests == {
            "chrome_trace": (
                "3ab0e23d7d0abb3f0061648542d7830aaaa0cb16bf10b070cf8d36bdd8959f0f"
            ),
            "snapshot": (
                "64f3840b8b0fca8a41c932dcb9ff5a1b16e7cbd786be38db52df2a35a45d66af"
            ),
            "decisions": (
                "cb4e98be839ff1031e6f7bbbcb92c1aacecdfd9b33d470c1ebdafc41589107ef"
            ),
        }

    def test_metrics_match_ground_truth(self):
        # The one-pass derivation against what the server itself
        # recorded: the recorder's latencies and completion count, and
        # the tracer's degree changes.
        spec = tiny_cell()
        obs = Observation()
        server = run_search_experiment(
            memoised_workload(spec.workload), spec, obs
        )
        snap = obs.metrics()
        recorder = server.recorder
        assert snap["response_ms.count"] == len(recorder.responses_ms)
        assert snap["response_ms.min"] == min(recorder.responses_ms)
        assert snap["response_ms.max"] == max(recorder.responses_ms)
        assert snap["execution_ms.max"] == max(recorder.executions_ms)
        raises = sum(
            event.kind is TraceEventKind.DEGREE_CHANGE
            for event in obs.tracer.events
        )
        assert raises > 0
        assert snap["degree_raises"] == raises
        assert snap["completions"] == len(recorder) == spec.n_requests

    def test_cluster_cells_rejected(self):
        class FakeClusterSpec:
            cluster_config = object()

        with pytest.raises(ConfigError, match="single-server"):
            observe_cell(FakeClusterSpec())


class TestOverheadScenario:
    def test_tracing_overhead_scenario(self):
        from repro.perf.scenarios import run_tracing_overhead

        result = run_tracing_overhead(1_500)
        for key in (
            "events_run",
            "events_per_s",
            "baseline_events_per_s",
            "penalty_fraction",
            "events_traced",
        ):
            assert key in result
        assert result["events_traced"] == 3 * 1_500
        assert result["events_per_s"] > 0

    def test_scenario_registered(self, monkeypatch):
        """The gate's timed perf check judges the observed throughput and
        records the penalty unjudged."""
        from dataclasses import replace

        from repro.gate import checks
        from repro.gate.runner import GateContext
        from repro.perf.scenarios import SCENARIOS

        spec = replace(SCENARIOS["tracing_overhead"], fast_size=1_500)
        monkeypatch.setattr(checks, "SCENARIOS", {"tracing_overhead": spec})
        monkeypatch.setattr(checks, "REPEATS", 1)
        ctx = GateContext(checks.scale_for_mode("fast"), {})
        bands = {
            m.metric: m.band for m in checks.CHECKS["perf"].evaluate(ctx)
        }
        assert bands["perf.tracing_overhead.events_per_s"] is not None
        assert bands["perf.tracing_overhead.penalty_fraction"] is None


class TestCli:
    def test_cli_writes_valid_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = tmp_path / "trace.json"
        code = main(
            ["--n-requests", "150", "--seed", "3", "--output", str(out)]
        )
        assert code == 0
        doc = json.load(open(out, encoding="utf-8"))
        assert validate_chrome_trace(doc) > 0
        printed = capsys.readouterr().out
        assert "Tail attribution" in printed
        assert "chrome trace written" in printed

    def test_cli_rejects_unknown_policy(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = tmp_path / "trace.json"
        for bad in (
            ["--policy", "NOPE", "--n-requests", "50"],
            ["--qps", "0", "--n-requests", "50"],
            ["--n-requests", "0"],
        ):
            assert main(bad + ["--output", str(out)]) == 2, bad
            assert "obs error:" in capsys.readouterr().err
        assert not out.exists()
