"""Tests for the Request lifecycle record."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.request import Request, RequestState

from conftest import LONG_PROFILE, make_request


class TestConstruction:
    def test_initial_state(self):
        req = make_request(1, 50.0, 60.0)
        assert req.state is RequestState.CREATED
        assert req.remaining_work_ms == 50.0
        assert req.degree == 0
        assert not req.corrected
        assert req.target_ms is None
        assert math.isnan(req.arrival_ms)

    def test_rejects_nonpositive_demand(self):
        with pytest.raises(SimulationError):
            Request(0, 0.0, 1.0, LONG_PROFILE)

    def test_rejects_negative_prediction(self):
        with pytest.raises(SimulationError):
            Request(0, 1.0, -1.0, LONG_PROFILE)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_demand_and_prediction(self, bad):
        # A NaN demand never finishes: the server re-arms its completion
        # event forever and run_to_completion never returns.
        with pytest.raises(SimulationError):
            Request(0, bad, 5.0, LONG_PROFILE)
        with pytest.raises(SimulationError):
            Request(0, 5.0, bad, LONG_PROFILE)


class TestLifecycleGuards:
    def test_response_requires_completion(self):
        req = make_request(0, 10.0)
        with pytest.raises(SimulationError):
            _ = req.response_ms

    def test_queueing_requires_start(self):
        req = make_request(0, 10.0)
        req.state = RequestState.QUEUED
        with pytest.raises(SimulationError):
            _ = req.queueing_ms

    def test_running_for_requires_running(self):
        req = make_request(0, 10.0)
        with pytest.raises(SimulationError):
            req.running_for(5.0)
        req.state = RequestState.RUNNING
        req.start_ms = 2.0
        assert req.running_for(5.0) == pytest.approx(3.0)

    def test_derived_times_consistent(self):
        req = make_request(0, 10.0)
        req.state = RequestState.COMPLETED
        req.arrival_ms = 1.0
        req.start_ms = 3.0
        req.finish_ms = 15.0
        assert req.response_ms == pytest.approx(14.0)
        assert req.queueing_ms == pytest.approx(2.0)
        assert req.response_ms == pytest.approx(
            req.queueing_ms + req.finish_ms - req.start_ms
        )

    def test_repr_mentions_state_and_degree(self):
        req = make_request(3, 10.0)
        req.degree = 4
        text = repr(req)
        assert "rid=3" in text and "degree=4" in text
