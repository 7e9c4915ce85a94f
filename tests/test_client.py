"""Tests for the open-loop client and trace replay."""

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.errors import ConfigError, WorkloadError
from repro.exec import CellSpec, WorkloadSpec
from repro.sim.client import OpenLoopClient, poisson_arrival_times, replay_trace
from repro.sim.engine import Engine
from repro.sim.server import Server

from conftest import make_request
from test_server import FixedDegreePolicy


class TestPoissonArrivals:
    def test_mean_rate_matches_qps(self, rng):
        times = poisson_arrival_times(20_000, qps=500.0, rng=rng)
        mean_gap = float(np.diff(times).mean())
        assert mean_gap == pytest.approx(2.0, rel=0.05)  # 1000/500 ms

    def test_times_are_increasing(self, rng):
        times = poisson_arrival_times(100, 100.0, rng)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(WorkloadError):
            poisson_arrival_times(0, 100.0, rng)
        with pytest.raises(WorkloadError):
            poisson_arrival_times(10, 0.0, rng)

    @pytest.mark.parametrize("qps", [float("nan"), float("inf")])
    def test_rejects_non_finite_qps(self, rng, qps):
        # A NaN rate would make every arrival time NaN and spin the
        # simulation forever; an infinite one would put every arrival
        # at t=0.
        with pytest.raises(WorkloadError):
            poisson_arrival_times(10, qps, rng)
        with pytest.raises(ConfigError):
            CellSpec.for_experiment(
                WorkloadSpec.search(seed=1), "Sequential", qps, 10, seed=1
            )


class TestOpenLoopClient:
    def test_single_server_receives_all(self, rng):
        engine = Engine()
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=engine)
        client = OpenLoopClient([server])
        reqs = [make_request(i, 5.0) for i in range(10)]
        n = client.schedule_trace(engine, reqs, qps=1000.0, rng=rng)
        assert n == 10
        server.run_to_completion(10)
        assert server.completed_count == 10

    def test_round_robin_across_servers(self, rng):
        engine = Engine()
        servers = [
            Server(ServerConfig(), FixedDegreePolicy(1), engine=engine)
            for _ in range(2)
        ]
        client = OpenLoopClient(servers, fanout=False)
        reqs = [make_request(i, 5.0) for i in range(10)]
        client.schedule_trace(engine, reqs, 1000.0, rng)
        engine.run()
        assert servers[0].completed_count == 5
        assert servers[1].completed_count == 5

    def test_fanout_requires_replica_factory(self):
        engine = Engine()
        servers = [
            Server(ServerConfig(), FixedDegreePolicy(1), engine=engine)
            for _ in range(2)
        ]
        with pytest.raises(WorkloadError):
            OpenLoopClient(servers, fanout=True)

    def test_fanout_clones_to_every_server(self, rng):
        engine = Engine()
        servers = [
            Server(ServerConfig(), FixedDegreePolicy(1), engine=engine)
            for _ in range(3)
        ]
        client = OpenLoopClient(
            servers,
            fanout=True,
            make_replica=lambda req, idx: make_request(req.rid, req.demand_ms),
        )
        reqs = [make_request(i, 5.0) for i in range(4)]
        client.schedule_trace(engine, reqs, 1000.0, rng)
        engine.run()
        for server in servers:
            assert server.completed_count == 4

    def test_empty_server_list_rejected(self):
        with pytest.raises(WorkloadError):
            OpenLoopClient([])


class TestReplayTrace:
    def test_runs_to_completion(self, rng):
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=Engine())
        reqs = [make_request(i, 10.0) for i in range(20)]
        replay_trace(server, reqs, qps=200.0, rng=rng)
        assert server.completed_count == 20
        assert len(server.recorder) == 20
