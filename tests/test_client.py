"""Tests for the open-loop client and its Poisson arrivals."""

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.errors import ConfigError, WorkloadError
from repro.exec import CellSpec, WorkloadSpec
from repro.sim.client import OpenLoopClient, poisson_arrival_times
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
        client = OpenLoopClient(server)
        reqs = [make_request(i, 5.0) for i in range(10)]
        n = client.schedule_trace(engine, reqs, qps=1000.0, rng=rng)
        assert n == 10
        server.run_to_completion(10)
        assert server.completed_count == 10

