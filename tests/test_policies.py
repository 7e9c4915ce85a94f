"""Tests for every parallelism policy's decision logic."""

import pytest

from repro.config import PolicyConfig, ServerConfig
from repro.errors import ConfigError
from repro.policies import (
    AdaptiveParallelismPolicy,
    PredPolicy,
    RampUpPolicy,
    SequentialPolicy,
    TPCPolicy,
    TPPolicy,
    WQLinearPolicy,
    make_policy,
    policy_names,
)
from repro.policies.ap import average_profile
from repro.policies.registry import POLICY_INFO
from repro.sim.engine import Engine
from repro.sim.server import Server

from conftest import LONG_PROFILE, make_request


def make_server(policy, **kwargs) -> Server:
    cfg = ServerConfig(**kwargs) if kwargs else ServerConfig()
    return Server(cfg, policy, engine=Engine())


class TestSequential:
    def test_always_degree_one(self):
        policy = SequentialPolicy()
        server = make_server(policy)
        for demand in (1.0, 50.0, 500.0):
            assert policy.initial_degree(make_request(0, demand), server) == 1

    def test_no_runtime_checks(self):
        policy = SequentialPolicy()
        server = make_server(policy)
        assert policy.first_check_delay(make_request(0, 10.0), server) is None


class TestPred:
    def test_long_prediction_gets_fixed_degree(self):
        policy = PredPolicy(long_threshold_ms=80.0, fixed_degree=3)
        server = make_server(policy)
        req = make_request(0, 100.0, predicted_ms=120.0)
        assert policy.initial_degree(req, server) == 3

    def test_short_prediction_runs_sequentially(self):
        policy = PredPolicy(80.0, 3)
        server = make_server(policy)
        req = make_request(0, 100.0, predicted_ms=60.0)  # mispredicted!
        assert policy.initial_degree(req, server) == 1

    def test_threshold_is_exclusive(self):
        policy = PredPolicy(80.0, 3)
        server = make_server(policy)
        assert policy.initial_degree(make_request(0, 80.0, 80.0), server) == 1

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            PredPolicy(long_threshold_ms=0)
        with pytest.raises(ConfigError):
            PredPolicy(fixed_degree=0)


class TestWQLinear:
    def test_empty_queue_gives_max_degree(self):
        policy = WQLinearPolicy(beta=1.0)
        server = make_server(policy)
        assert policy.initial_degree(make_request(0, 10.0), server) == 6

    def test_degree_decreases_with_queue(self):
        policy = WQLinearPolicy(beta=1.0)
        server = make_server(policy, worker_threads=1, max_parallelism=1)
        # Fill the queue by submitting to a single-worker server.
        server.submit(make_request(0, 1000.0))
        for i in range(1, 6):
            server.submit(make_request(i, 1000.0))
        assert server.queue_length == 5
        # Fresh policy decision with a 5-deep queue on a 6-way server.
        wide = make_server(WQLinearPolicy(beta=1.0))
        degrees = []
        for q in (0, 1, 2, 5, 20):
            wide.waiting.extend(make_request(100 + i, 1.0) for i in range(q))
            degrees.append(
                WQLinearPolicy(beta=1.0).initial_degree(
                    make_request(0, 10.0), wide
                )
            )
            wide.waiting.clear()
        assert degrees[0] == 6
        assert all(b <= a for a, b in zip(degrees, degrees[1:]))
        assert degrees[-1] == 1

    def test_ignores_prediction(self):
        policy = WQLinearPolicy()
        server = make_server(policy)
        short = make_request(0, 5.0, predicted_ms=5.0)
        long = make_request(1, 300.0, predicted_ms=300.0)
        assert policy.initial_degree(short, server) == policy.initial_degree(
            long, server
        )


class TestAP:
    def test_average_profile_weighted_by_groups(self, speedup_book):
        avg = average_profile(speedup_book, [0.9, 0.05, 0.05])
        expected_s6 = 0.9 * 1.16 + 0.05 * 2.05 + 0.05 * 4.1
        assert avg.speedup(6) == pytest.approx(expected_s6)

    def test_average_profile_rejects_weight_mismatch(self, speedup_book):
        with pytest.raises(ConfigError):
            average_profile(speedup_book, [1.0])

    def test_idle_system_uses_generous_degree(self, speedup_book):
        avg = average_profile(speedup_book, [0.9, 0.05, 0.05])
        policy = AdaptiveParallelismPolicy(avg, interference_weight=0.25)
        server = make_server(policy)
        assert policy.initial_degree(make_request(0, 10.0), server) >= 4

    def test_busy_system_collapses_to_sequential(self, speedup_book):
        avg = average_profile(speedup_book, [0.9, 0.05, 0.05])
        policy = AdaptiveParallelismPolicy(avg, interference_weight=0.25)
        server = make_server(SequentialPolicy())
        for i in range(20):
            server.submit(make_request(i, 500.0))
        assert policy.initial_degree(make_request(99, 10.0), server) == 1

    def test_same_degree_for_short_and_long(self, speedup_book):
        avg = average_profile(speedup_book, [0.9, 0.05, 0.05])
        policy = AdaptiveParallelismPolicy(avg, 0.25)
        server = make_server(policy)
        short = make_request(0, 5.0, 5.0)
        long = make_request(1, 300.0, 300.0)
        assert policy.initial_degree(short, server) == policy.initial_degree(
            long, server
        )


class TestRampUp:
    def test_starts_sequential(self):
        policy = RampUpPolicy(10.0)
        server = make_server(policy)
        assert policy.initial_degree(make_request(0, 100.0), server) == 1

    def test_increments_by_one_per_interval(self):
        policy = RampUpPolicy(10.0)
        server = make_server(policy)
        req = make_request(0, 100.0)
        req.degree = 1
        new_degree, next_delay = policy.on_check(req, server)
        assert new_degree == 2
        assert next_delay == 10.0

    def test_stops_at_max_degree(self):
        policy = RampUpPolicy(10.0)
        server = make_server(policy)
        req = make_request(0, 100.0)
        req.degree = 6
        assert policy.on_check(req, server) == (None, None)

    def test_last_increment_schedules_no_more_checks(self):
        policy = RampUpPolicy(10.0)
        server = make_server(policy)
        req = make_request(0, 100.0)
        req.degree = 5
        new_degree, next_delay = policy.on_check(req, server)
        assert new_degree == 6
        assert next_delay is None

    def test_name_includes_interval(self):
        assert RampUpPolicy(5.0).name == "RampUp-5ms"

    def test_end_to_end_long_query_ramps(self):
        policy = RampUpPolicy(10.0)
        server = make_server(policy)
        req = make_request(0, 60.0, profile=LONG_PROFILE)
        server.submit(req)
        server.run_to_completion(1)
        assert req.max_degree_seen > 1
        # Faster than sequential 60 ms despite starting sequential.
        assert req.response_ms < 60.0


class TestTP:
    def test_reads_target_from_table_by_load(self, speedup_book, target_table):
        policy = TPPolicy(target_table, speedup_book)
        server = make_server(policy)
        req = make_request(0, 10.0, predicted_ms=10.0)
        policy.initial_degree(req, server)
        assert req.target_ms == 40.0  # idle -> first entry

    def test_degree_minimal_to_meet_target(self, speedup_book, target_table):
        policy = TPPolicy(target_table, speedup_book)
        server = make_server(policy)
        req = make_request(0, 100.0, predicted_ms=100.0)
        degree = policy.initial_degree(req, server)
        profile = speedup_book.profiles[speedup_book.group_of(100.0)]
        assert 100.0 / profile.speedup(degree) <= 40.0
        assert req.target_ms == 40.0

    def test_no_runtime_checks(self, speedup_book, target_table):
        policy = TPPolicy(target_table, speedup_book)
        server = make_server(policy)
        req = make_request(0, 100.0)
        assert policy.first_check_delay(req, server) is None


class TestTPC:
    def test_check_scheduled_at_target(self, speedup_book, target_table):
        policy = TPCPolicy(target_table, speedup_book)
        server = make_server(policy)
        req = make_request(0, 100.0, predicted_ms=20.0)  # mispredicted short
        req.target_ms = 40.0
        req.degree = 1
        assert policy.first_check_delay(req, server) == 40.0

    def test_no_check_when_already_max_degree(self, speedup_book, target_table):
        policy = TPCPolicy(target_table, speedup_book)
        server = make_server(policy)
        req = make_request(0, 400.0, predicted_ms=400.0)
        req.target_ms = 40.0
        req.degree = 6
        assert policy.first_check_delay(req, server) is None

    def test_correction_marks_request(self, speedup_book, target_table):
        policy = TPCPolicy(target_table, speedup_book)
        server = make_server(policy)
        req = make_request(0, 200.0, predicted_ms=10.0)
        req.degree = 1
        new_degree, _ = policy.on_check(req, server)
        assert new_degree is not None and new_degree > 1
        assert req.corrected is True

    def test_end_to_end_correction_rescues_misprediction(
        self, speedup_book, target_table
    ):
        policy = TPCPolicy(target_table, speedup_book)
        server = make_server(policy)
        # Long query mispredicted as short: starts sequential, gets
        # corrected at E = 40 ms, finishes long before 200 ms.
        req = make_request(0, 200.0, predicted_ms=10.0, profile=LONG_PROFILE)
        server.submit(req)
        server.run_to_completion(1)
        assert req.corrected
        assert req.max_degree_seen == 6
        assert req.response_ms < 200.0 * 0.5


class TestRegistry:
    def test_policy_names_cover_table_1(self):
        names = policy_names()
        for expected in ("TPC", "TP", "AP", "Pred", "WQ-Linear", "Sequential"):
            assert expected in names

    def test_table_1_information_matrix(self):
        assert POLICY_INFO["TPC"].uses_prediction
        assert POLICY_INFO["TPC"].uses_system_load
        assert POLICY_INFO["TPC"].uses_parallelism_efficiency
        assert not POLICY_INFO["AP"].uses_prediction
        assert POLICY_INFO["AP"].uses_system_load
        assert POLICY_INFO["Pred"].uses_prediction
        assert not POLICY_INFO["Pred"].uses_system_load
        assert not POLICY_INFO["WQ-Linear"].uses_prediction
        assert POLICY_INFO["WQ-Linear"].uses_system_load

    def test_make_policy_constructs_each(self, speedup_book, target_table):
        weights = [0.9, 0.05, 0.05]
        for name in policy_names():
            policy = make_policy(
                name, speedup_book, weights, target_table=target_table
            )
            assert policy.name.startswith(name.split("-")[0]) or name == "WQ-Linear"

    def test_tpc_requires_target_table(self, speedup_book):
        with pytest.raises(ConfigError):
            make_policy("TPC", speedup_book, [1, 0, 0])

    def test_unknown_policy_rejected(self, speedup_book):
        with pytest.raises(ConfigError):
            make_policy("Nope", speedup_book, [1, 0, 0])

    def test_rampup_interval_override(self, speedup_book):
        policy = make_policy(
            "RampUp", speedup_book, [1, 0, 0],
            policy_config=PolicyConfig(rampup_interval_ms=5.0),
        )
        assert policy.interval_ms == 5.0

    def test_pred_degree_override(self, speedup_book):
        policy = make_policy(
            "Pred", speedup_book, [1, 0, 0],
            policy_config=PolicyConfig(pred_fixed_degree=2),
        )
        assert policy.fixed_degree == 2

    def test_policy_config_flows_through(self, speedup_book, target_table):
        cfg = PolicyConfig(wq_linear_beta=2.0)
        policy = make_policy("WQ-Linear", speedup_book, [1, 0, 0],
                             policy_config=cfg)
        assert policy.beta == 2.0
