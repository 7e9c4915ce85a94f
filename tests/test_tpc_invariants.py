"""End-to-end invariants of the TPC policy under randomized workloads."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import ServerConfig
from repro.core.target_table import TargetTable
from repro.policies import TPCPolicy, TPPolicy
from repro.sim.engine import Engine
from repro.sim.client import OpenLoopClient
from repro.sim.server import Server

from conftest import LONG_PROFILE, MID_PROFILE, SHORT_PROFILE, make_request


TABLE = TargetTable([(0, 35), (4, 45), (8, 60), (16, 90), (32, 130)])


def run_tpc(demands_preds, qps=400.0, seed=0, policy_cls=TPCPolicy,
            speedup_book=None):
    from repro.core.speedup import SpeedupBook

    book = speedup_book or SpeedupBook(
        [SHORT_PROFILE, MID_PROFILE, LONG_PROFILE]
    )
    policy = policy_cls(TABLE, book)
    server = Server(ServerConfig(), policy, engine=Engine())
    reqs = []
    for i, (demand, pred) in enumerate(demands_preds):
        profile = book.profiles[book.group_of(demand)]
        reqs.append(make_request(i, demand, pred, profile))
    rng = np.random.default_rng(seed)
    OpenLoopClient(server).schedule_trace(server.engine, reqs, qps, rng)
    server.run_to_completion(len(reqs))
    return server, reqs


demand_pred_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=300.0),
        st.floats(min_value=0.5, max_value=300.0),
    ),
    min_size=5,
    max_size=60,
)


@settings(max_examples=20, deadline=None)
@given(demand_pred_lists)
def test_every_request_gets_a_target(pairs):
    server, reqs = run_tpc(pairs)
    for req in reqs:
        assert req.target_ms is not None
        assert req.target_ms in TABLE.targets


@settings(max_examples=20, deadline=None)
@given(demand_pred_lists)
def test_corrected_requests_ran_past_target(pairs):
    """A request is only marked corrected if it executed for at least
    its target E before the degree increase."""
    server, reqs = run_tpc(pairs)
    for req in reqs:
        if req.corrected:
            assert req.execution_ms >= req.target_ms - 1e-6
            assert req.max_degree_seen > req.initial_degree


@settings(max_examples=20, deadline=None)
@given(demand_pred_lists)
def test_uncorrected_requests_keep_initial_degree(pairs):
    server, reqs = run_tpc(pairs)
    for req in reqs:
        if not req.corrected:
            assert req.max_degree_seen == req.initial_degree


@settings(max_examples=15, deadline=None)
@given(demand_pred_lists)
def test_tpc_never_slower_than_tp_for_any_request_population(pairs):
    """Across random workloads, TPC's max response never exceeds TP's
    by more than the ramp-up penalty overhead allows."""
    tp_server, _ = run_tpc(pairs, policy_cls=TPPolicy)
    tpc_server, _ = run_tpc(pairs, policy_cls=TPCPolicy)
    tp_max = max(tp_server.recorder.responses_ms)
    tpc_max = max(tpc_server.recorder.responses_ms)
    # Correction can only shorten the worst request (tiny slack for the
    # penalty charged on degree increases of already-short requests).
    assert tpc_max <= tp_max * 1.10 + 2.0


def test_short_predictions_below_target_start_sequential():
    server, reqs = run_tpc(
        [(20.0, 20.0), (25.0, 10.0), (200.0, 30.0)], qps=10.0
    )
    for req in reqs:
        if req.predicted_ms <= req.target_ms:
            assert req.initial_degree == 1


def test_predicted_long_start_parallel():
    server, reqs = run_tpc([(200.0, 200.0)], qps=1.0)
    assert reqs[0].initial_degree > 1
    assert not reqs[0].corrected or reqs[0].max_degree_seen == 6
