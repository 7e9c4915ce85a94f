"""Tests for policy extensions: load-aware RampUp and TPC ablation knobs."""

import pytest

from repro.config import ServerConfig
from repro.errors import ConfigError
from repro.policies import AdaptiveRampUpPolicy, TPCPolicy, make_policy
from repro.policies.registry import POLICY_INFO
from repro.sim.engine import Engine
from repro.sim.server import Server

from conftest import LONG_PROFILE, make_request
from test_server import FixedDegreePolicy


def make_server(policy, **kwargs):
    cfg = ServerConfig(**kwargs) if kwargs else ServerConfig()
    return Server(cfg, policy, engine=Engine())


class TestAdaptiveRampUp:
    def test_idle_system_uses_fastest_interval(self):
        policy = AdaptiveRampUpPolicy()
        server = make_server(policy)
        req = make_request(0, 100.0)
        assert policy.initial_degree(req, server) == 1
        assert policy.first_check_delay(req, server) == 5.0

    def test_busy_system_uses_slowest_interval(self):
        policy = AdaptiveRampUpPolicy()
        server = make_server(FixedDegreePolicy(2))
        for i in range(10):
            server.submit(make_request(i, 500.0))
        # 20 active threads -> beyond the 10-thread breakpoint.
        req = make_request(99, 100.0)
        policy.initial_degree(req, server)
        assert policy.first_check_delay(req, server) == 20.0

    def test_ramp_increments_until_max(self):
        policy = AdaptiveRampUpPolicy()
        server = make_server(policy)
        req = make_request(0, 300.0, profile=LONG_PROFILE)
        server.submit(req)
        server.run_to_completion(1)
        assert req.max_degree_seen == server.config.max_parallelism
        assert req.response_ms < 300.0

    def test_interval_state_cleaned_up(self):
        policy = AdaptiveRampUpPolicy()
        server = make_server(policy)
        req = make_request(0, 300.0, profile=LONG_PROFILE)
        server.submit(req)
        server.run_to_completion(1)
        assert req.rid not in policy._intervals

    def test_rejects_bad_tables(self):
        with pytest.raises(ConfigError):
            AdaptiveRampUpPolicy(interval_table=[])
        with pytest.raises(ConfigError):
            AdaptiveRampUpPolicy(interval_table=[(5.0, 5.0), (3.0, 10.0)])
        with pytest.raises(ConfigError):
            AdaptiveRampUpPolicy(interval_table=[(5.0, 0.0)])

    def test_registered_in_registry(self, speedup_book):
        info = POLICY_INFO["RampUp-Adaptive"]
        assert info.uses_system_load and not info.uses_prediction
        policy = make_policy("RampUp-Adaptive", speedup_book, [1, 0, 0])
        assert isinstance(policy, AdaptiveRampUpPolicy)


class TestTPCCorrectionDelayFactor:
    def test_delayed_trigger_fires_later(self, speedup_book, target_table):
        base = TPCPolicy(target_table, speedup_book)
        late = TPCPolicy(
            target_table, speedup_book, correction_delay_factor=2.0
        )
        server = make_server(base)
        req = make_request(0, 200.0, predicted_ms=10.0)
        req.target_ms = 40.0
        req.degree = 1
        assert base.first_check_delay(req, server) == 40.0
        assert late.first_check_delay(req, server) == 80.0

    def test_late_correction_hurts_mispredicted_latency(
        self, speedup_book, target_table
    ):
        def run(factor):
            policy = TPCPolicy(
                target_table, speedup_book, correction_delay_factor=factor
            )
            server = make_server(policy)
            req = make_request(
                0, 200.0, predicted_ms=10.0, profile=LONG_PROFILE
            )
            server.submit(req)
            server.run_to_completion(1)
            return req.response_ms

        assert run(1.0) < run(2.0) < run(4.0)

    def test_rejects_nonpositive_factor(self, speedup_book, target_table):
        with pytest.raises(ValueError):
            TPCPolicy(target_table, speedup_book, correction_delay_factor=0)


class TestTPCResourceSignal:
    def test_idle_hardware_signal(self, speedup_book, target_table):
        policy = TPCPolicy(
            target_table, speedup_book, resource_signal="idle_hardware"
        )
        server = make_server(policy)
        # Occupy 20 of 24 hardware threads via another policy's requests.
        filler = make_server(FixedDegreePolicy(5))
        assert policy._spare_resources(server) == 24  # idle machine
        for i in range(4):
            server.submit(make_request(i, 500.0, predicted_ms=500.0))
        # Requests admitted at degree <= max; hardware slots shrink.
        assert (
            policy._spare_resources(server)
            == server.config.hardware_threads - server.total_active_threads
        )

    def test_idle_workers_is_default(self, speedup_book, target_table):
        policy = TPCPolicy(target_table, speedup_book)
        server = make_server(policy)
        assert policy._spare_resources(server) == server.idle_workers

    def test_rejects_unknown_signal(self, speedup_book, target_table):
        with pytest.raises(ValueError):
            TPCPolicy(target_table, speedup_book, resource_signal="magic")
