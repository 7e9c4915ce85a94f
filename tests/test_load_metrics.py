"""Tests for system-load metrics (Section 4.6)."""

import pytest

from repro.config import ServerConfig
from repro.sim.engine import Engine
from repro.sim.load import LoadMetric, load_value
from repro.sim.server import Server

from conftest import make_request, run_until
from test_server import FixedDegreePolicy


@pytest.fixture()
def busy_server():
    server = Server(ServerConfig(), FixedDegreePolicy(2), engine=Engine())
    # Two predicted-long requests (degree 2 each) + one predicted-short.
    server.submit(make_request(0, 200.0, predicted_ms=150.0))
    server.submit(make_request(1, 200.0, predicted_ms=90.0))
    server.submit(make_request(2, 200.0, predicted_ms=10.0))
    return server


class TestLoadValue:
    def test_long_threads_counts_predicted_long_only(self, busy_server):
        assert load_value(busy_server, LoadMetric.LONG_THREADS) == 4.0

    def test_all_threads_counts_everything(self, busy_server):
        assert load_value(busy_server, LoadMetric.ALL_THREADS) == 6.0

    def test_queue_length_metric(self, busy_server):
        assert load_value(busy_server, LoadMetric.QUEUE_LENGTH) == 0.0

    def test_cpu_util_scaled_to_thread_equivalents(self, busy_server):
        run_until(busy_server.engine, 100.0)
        value = load_value(busy_server, LoadMetric.CPU_UTIL)
        cap = busy_server.config.hardware_threads
        assert 0.0 <= value <= cap

    def test_cpu_util_lags_instantaneous_load(self):
        """CpuUtil is a laggy EMA: right after load arrives it still
        reads near zero while thread counts see it instantly."""
        server = Server(ServerConfig(), FixedDegreePolicy(2), engine=Engine())
        server.submit(make_request(0, 500.0, predicted_ms=400.0))
        instant = load_value(server, LoadMetric.ALL_THREADS)
        lagging = load_value(server, LoadMetric.CPU_UTIL)
        assert instant == 2.0
        assert lagging == 0.0  # no sample window has elapsed yet

    def test_unknown_metric_rejected(self, busy_server):
        with pytest.raises(ValueError):
            load_value(busy_server, "not-a-metric")  # type: ignore[arg-type]
