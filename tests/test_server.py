"""Tests for the ISN server model: queueing, processor sharing,
mid-flight degree changes, and completion accounting."""

import pytest

from repro.config import ServerConfig
from repro.core.speedup import SpeedupProfile
from repro.errors import SchedulingError, SimulationError
from repro.policies.base import ParallelismPolicy
from repro.sim.engine import Engine
from repro.sim.request import RequestState
from repro.sim.server import Server

from conftest import make_request, run_until


class FixedDegreePolicy(ParallelismPolicy):
    """Test helper: every request starts at a fixed degree."""

    name = "Fixed"

    def __init__(self, degree: int = 1):
        self.degree = degree

    def initial_degree(self, request, server):
        return self.degree


class TimedRampPolicy(ParallelismPolicy):
    """Test helper: raise to a target degree after a delay."""

    name = "TimedRamp"

    def __init__(self, delay_ms: float, to_degree: int):
        self.delay_ms = delay_ms
        self.to_degree = to_degree

    def initial_degree(self, request, server):
        return 1

    def first_check_delay(self, request, server):
        return self.delay_ms

    def on_check(self, request, server):
        return (self.to_degree, None)


def make_server(policy, **config_kwargs) -> Server:
    cfg = ServerConfig(**config_kwargs) if config_kwargs else ServerConfig()
    return Server(cfg, policy, engine=Engine())


LINEAR6 = SpeedupProfile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


class TestSequentialExecution:
    def test_single_request_latency_equals_demand(self):
        server = make_server(FixedDegreePolicy(1))
        req = make_request(0, demand_ms=20.0)
        server.submit(req)
        server.run_to_completion(1)
        assert req.response_ms == pytest.approx(20.0)
        assert req.queueing_ms == pytest.approx(0.0)

    def test_fifo_order_preserved(self):
        server = make_server(FixedDegreePolicy(1), worker_threads=1,
                             max_parallelism=1)
        first = make_request(0, 10.0)
        second = make_request(1, 10.0)
        server.submit(first)
        server.submit(second)
        server.run_to_completion(2)
        assert first.finish_ms == pytest.approx(10.0)
        assert second.queueing_ms == pytest.approx(10.0)
        assert second.finish_ms == pytest.approx(20.0)

    def test_states_transition_correctly(self):
        server = make_server(FixedDegreePolicy(1))
        req = make_request(0, 5.0)
        assert req.state is RequestState.CREATED
        server.submit(req)
        assert req.state is RequestState.RUNNING  # worker was idle
        server.run_to_completion(1)
        assert req.state is RequestState.COMPLETED

    def test_double_submit_rejected(self):
        server = make_server(FixedDegreePolicy(1))
        req = make_request(0, 5.0)
        server.submit(req)
        with pytest.raises(SimulationError):
            server.submit(req)


class TestParallelExecution:
    def test_parallel_request_speeds_up_by_profile(self):
        server = make_server(FixedDegreePolicy(4))
        req = make_request(0, demand_ms=100.0, profile=LINEAR6)
        server.submit(req)
        server.run_to_completion(1)
        assert req.response_ms == pytest.approx(25.0)
        assert req.initial_degree == 4

    def test_degree_clamped_to_max_parallelism(self):
        server = make_server(FixedDegreePolicy(10))
        req = make_request(0, 60.0, profile=LINEAR6)
        server.submit(req)
        server.run_to_completion(1)
        assert req.initial_degree == 6

    def test_degree_clamped_to_idle_workers(self):
        server = make_server(
            FixedDegreePolicy(6), worker_threads=8, hardware_threads=8,
            physical_cores=8,
        )
        a = make_request(0, 100.0, profile=LINEAR6)
        b = make_request(1, 100.0, profile=LINEAR6)
        server.submit(a)
        server.submit(b)  # only 2 workers left
        assert a.degree == 6
        assert b.degree == 2

    def test_zero_degree_policy_rejected(self):
        server = make_server(FixedDegreePolicy(0))
        with pytest.raises(SchedulingError):
            server.submit(make_request(0, 10.0))


class TestProcessorSharing:
    def test_no_contention_below_physical_cores(self):
        server = make_server(FixedDegreePolicy(1))
        reqs = [make_request(i, 30.0) for i in range(12)]
        for r in reqs:
            server.submit(r)
        server.run_to_completion(12)
        for r in reqs:
            assert r.response_ms == pytest.approx(30.0)

    def test_smt_contention_slows_execution(self):
        # 24 concurrent sequential requests on 12 cores with SMT yield
        # 0.35: total rate 16.2, per-thread factor 16.2/24 = 0.675.
        server = make_server(FixedDegreePolicy(1))
        reqs = [make_request(i, 30.0) for i in range(24)]
        for r in reqs:
            server.submit(r)
        server.run_to_completion(24)
        expected = 30.0 / (16.2 / 24)
        for r in reqs:
            assert r.response_ms == pytest.approx(expected, rel=1e-6)

    def test_work_conservation_under_contention(self):
        """Total completed work equals total demand regardless of the
        interleaving (fluid simulation conserves work)."""
        server = make_server(FixedDegreePolicy(1))
        demands = [10.0, 25.0, 40.0, 5.0, 60.0]
        reqs = [make_request(i, d) for i, d in enumerate(demands)]
        for r in reqs:
            server.submit(r)
        server.run_to_completion(len(reqs))
        for r in reqs:
            assert r.remaining_work_ms <= 1e-6

    def test_completion_order_by_remaining_work(self):
        server = make_server(FixedDegreePolicy(1))
        short = make_request(0, 10.0)
        long = make_request(1, 50.0)
        server.submit(long)
        server.submit(short)
        server.run_to_completion(2)
        assert short.finish_ms < long.finish_ms


class TestDegreeChanges:
    def test_rampup_accelerates_remaining_work(self):
        # 100 ms of work; at t=20 the degree jumps to 4 (linear
        # profile): total = 20 + (80 + penalty)/4.
        server = make_server(TimedRampPolicy(20.0, 4))
        req = make_request(0, 100.0, profile=LINEAR6)
        server.submit(req)
        server.run_to_completion(1)
        penalty = ServerConfig().rampup_penalty_ms
        assert req.response_ms == pytest.approx(20.0 + (80.0 + penalty) / 4.0)
        assert req.max_degree_seen == 4
        assert req.degree_changes == 1

    def test_rampup_penalty_charged_once_per_increase(self):
        cfg_penalty = ServerConfig().rampup_penalty_ms
        server = make_server(TimedRampPolicy(10.0, 2))
        req = make_request(0, 50.0, profile=LINEAR6)
        server.submit(req)
        server.run_to_completion(1)
        assert req.response_ms == pytest.approx(10.0 + (40.0 + cfg_penalty) / 2.0)

    def test_raise_degree_limited_by_idle_workers(self):
        server = make_server(
            FixedDegreePolicy(1), worker_threads=3, hardware_threads=8,
            physical_cores=8, max_parallelism=3,
        )
        a = make_request(0, 100.0, profile=LINEAR6)
        b = make_request(1, 100.0, profile=LINEAR6)
        server.submit(a)
        server.submit(b)
        granted = server.raise_degree(a, 6)
        assert granted == 2  # only one idle worker existed
        assert server.idle_workers == 0

    def test_raise_degree_on_completed_request_rejected(self):
        server = make_server(FixedDegreePolicy(1))
        req = make_request(0, 10.0)
        server.submit(req)
        server.run_to_completion(1)
        with pytest.raises(SchedulingError):
            server.raise_degree(req, 2)

    def test_lower_degree_request_ignored(self):
        server = make_server(FixedDegreePolicy(4))
        req = make_request(0, 100.0, profile=LINEAR6)
        server.submit(req)
        assert server.raise_degree(req, 2) == 4  # no decrease applied


class TestLoadSurface:
    def test_thread_accounting(self):
        server = make_server(FixedDegreePolicy(3))
        req = make_request(0, 100.0, predicted_ms=120.0, profile=LINEAR6)
        server.submit(req)
        assert server.total_active_threads == 3
        assert server.active_long_threads == 3  # predicted 120 > 80
        assert server.idle_workers == ServerConfig().worker_threads - 3

    def test_short_predicted_requests_not_counted_long(self):
        server = make_server(FixedDegreePolicy(2))
        req = make_request(0, 100.0, predicted_ms=20.0, profile=LINEAR6)
        server.submit(req)
        assert server.active_long_threads == 0
        assert server.total_active_threads == 2

    def test_queue_length_counts_waiting_only(self):
        server = make_server(
            FixedDegreePolicy(1), worker_threads=1, max_parallelism=1
        )
        server.submit(make_request(0, 50.0))
        server.submit(make_request(1, 50.0))
        server.submit(make_request(2, 50.0))
        assert server.queue_length == 2
        assert server.running_count == 1

    def test_completion_callback_invoked(self):
        seen = []
        cfg = ServerConfig()
        server = Server(
            cfg, FixedDegreePolicy(1), engine=Engine(),
            completion_callback=lambda r: seen.append(r.rid),
        )
        server.submit(make_request(7, 10.0))
        server.run_to_completion(1)
        assert seen == [7]

    def test_cpu_utilization_tracks_busy_fraction(self):
        server = make_server(FixedDegreePolicy(1))
        # Keep 6 of 12 physical cores busy for several sample windows.
        reqs = [make_request(i, 200.0) for i in range(6)]
        for r in reqs:
            server.submit(r)
        run_until(server.engine, 150.0)
        assert 0.2 < server.cpu_utilization < 0.5  # ~6/16.2 = 0.37

    def test_cpu_utilization_resets_when_idle(self):
        server = make_server(FixedDegreePolicy(1))
        server.submit(make_request(0, 10.0))
        server.run_to_completion(1)
        server.engine.run()  # let the sampler drain
        assert server.cpu_utilization == 0.0


class TestRecorderIntegration:
    def test_recorder_captures_all_fields(self):
        server = make_server(FixedDegreePolicy(2))
        req = make_request(0, 40.0, predicted_ms=50.0, profile=LINEAR6)
        server.submit(req)
        server.run_to_completion(1)
        rec = server.recorder
        assert len(rec) == 1
        assert rec.demands_ms[0] == 40.0
        assert rec.predictions_ms[0] == 50.0
        assert rec.initial_degrees[0] == 2
        assert rec.max_degrees[0] == 2
        assert rec.corrected[0] is False

    def test_run_to_completion_raises_on_drained_engine(self):
        server = make_server(FixedDegreePolicy(1))
        with pytest.raises(SimulationError):
            server.run_to_completion(1)


class TestSamplerIdleShutdown:
    """The CPU sampler unsubscribes while fully idle and re-arms on
    the next submit — no event churn in idle tails."""

    def test_engine_drains_after_completion(self):
        server = make_server(FixedDegreePolicy(1))
        server.submit(make_request(0, 10.0))
        server.run_to_completion(1)
        # Let any final sampler event fire: the engine must then drain
        # completely instead of a sampler re-arming itself forever.
        assert server.engine.run(max_events=10) <= 1
        assert server.engine.pending == 0

    def test_sampler_rearms_on_next_submit(self):
        server = make_server(FixedDegreePolicy(1))
        server.submit(make_request(0, 10.0))
        server.run_to_completion(1)
        server.engine.run()
        idle_events = server.engine.events_run
        # A long idle gap, then a second burst: sampling resumes and
        # utilisation is measured over the new window, not the gap.
        run_until(server.engine, server.engine.now + 10_000.0)
        assert server.engine.events_run == idle_events
        server.submit(make_request(1, 200.0))
        run_until(server.engine, server.engine.now + 150.0)
        assert server.cpu_utilization > 0.0
        server.run_to_completion(2)


class TestCompletionHandle:
    """A server owns one completion handle and re-arms it in place."""

    def test_one_handle_fires_across_rearms(self):
        server = make_server(FixedDegreePolicy(1))
        handle = server._completion_handle
        for i, at in enumerate((0.0, 1.0, 30.0)):
            server.engine.schedule_at(
                at, lambda r=make_request(i, 10.0): server.submit(r)
            )
        server.run_to_completion(3)
        assert server.completed_count == 3
        assert server._completion_handle is handle
        assert handle.callback == server._on_completion_event
        assert handle.seq == -1  # fired last, nothing left to complete

    def test_cancelling_the_last_running_request_cancels_the_completion(self):
        server = make_server(FixedDegreePolicy(1))
        request = make_request(0, 10.0)
        server.submit(request)
        handle = server._completion_handle
        assert handle.seq >= 0
        run_until(server.engine, 4.0)
        server.cancel_request(request)
        assert handle.seq == -1
        assert handle.callback == server._on_completion_event
        server.engine.run()
        assert server.completed_count == 0
