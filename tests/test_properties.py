"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import ServerConfig
from repro.core.predictive import select_degree
from repro.core.speedup import SpeedupProfile, demand_group
from repro.core.target_table import TargetTable
from repro.sim.engine import Engine
from repro.sim.metrics import percentile
from repro.sim.server import Server

from conftest import make_request
from test_server import FixedDegreePolicy


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

speedup_lists = st.lists(
    st.floats(min_value=0.0, max_value=0.9), min_size=1, max_size=7
).map(lambda increments: tuple(np.cumsum([1.0] + increments).tolist()))


@st.composite
def target_tables(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    loads = sorted(
        draw(
            st.lists(
                st.floats(min_value=0, max_value=100),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    targets = draw(
        st.lists(
            st.floats(min_value=1, max_value=500), min_size=n, max_size=n
        )
    )
    return TargetTable(zip(loads, targets))


# ---------------------------------------------------------------------------
# SpeedupProfile invariants
# ---------------------------------------------------------------------------


@given(speedup_lists)
def test_profile_execution_time_antimonotone_in_degree(speedups):
    profile = SpeedupProfile(speedups)
    times = [100.0 / profile.speedup(d) for d in range(1, profile.max_degree + 1)]
    assert all(b <= a + 1e-9 for a, b in zip(times, times[1:]))


@given(speedup_lists, st.integers(min_value=1, max_value=20))
def test_profile_saturation_beyond_max_degree(speedups, extra):
    profile = SpeedupProfile(speedups)
    assert profile.speedup(profile.max_degree + extra) == profile.speedup(
        profile.max_degree
    )


# ---------------------------------------------------------------------------
# select_degree invariants
# ---------------------------------------------------------------------------


@given(
    speedup_lists,
    st.floats(min_value=0.1, max_value=1000.0),
    st.floats(min_value=0.1, max_value=500.0),
)
def test_select_degree_is_minimal_and_feasible(speedups, predicted, target):
    profile = SpeedupProfile(speedups)
    degree = select_degree(predicted, target, profile)
    assert 1 <= degree <= profile.max_degree
    meets = predicted / profile.speedup(degree) <= target
    if degree == 1:
        assert meets or profile.max_degree == 1 or not any(
            predicted / profile.speedup(d) <= target
            for d in range(1, profile.max_degree + 1)
        ) or predicted <= target
    elif meets:
        # minimality: one fewer thread would miss the target
        assert predicted / profile.speedup(degree - 1) > target
    else:
        # infeasible target -> maximum degree
        assert degree == profile.max_degree


# ---------------------------------------------------------------------------
# TargetTable invariants
# ---------------------------------------------------------------------------


@given(target_tables(), st.floats(min_value=-10, max_value=1000))
def test_target_lookup_always_returns_a_table_entry(table, load):
    assert table.target_for(load) in table.targets


@given(target_tables(), st.floats(min_value=0, max_value=200))
def test_bump_only_changes_one_entry(table, step):
    for i in range(len(table)):
        bumped = table.bumped(i, step)
        for j in range(len(table)):
            if i == j:
                assert bumped.targets[j] == table.targets[j] + step
            else:
                assert bumped.targets[j] == table.targets[j]


# ---------------------------------------------------------------------------
# demand_group invariants
# ---------------------------------------------------------------------------


@given(st.floats(min_value=0.001, max_value=10_000))
def test_demand_group_is_monotone(demand):
    g1 = demand_group(demand)
    g2 = demand_group(demand * 2)
    assert g2 >= g1


# ---------------------------------------------------------------------------
# Percentile invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200),
    st.floats(min_value=1, max_value=99),
)
def test_percentile_within_sample_range(values, p):
    result = percentile(values, p)
    assert min(values) <= result <= max(values)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100))
def test_percentiles_monotone_in_p(values):
    ps = [50, 90, 99, 99.9]
    results = [percentile(values, p) for p in ps]
    assert all(b >= a for a, b in zip(results, results[1:]))


# ---------------------------------------------------------------------------
# Server conservation properties
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.5, max_value=100.0), min_size=1, max_size=30
    ),
    st.integers(min_value=1, max_value=6),
)
def test_server_completes_all_work_exactly(demands, degree):
    """Work conservation: every request completes with zero remaining
    work and non-negative queueing, regardless of demands and degree."""
    server = Server(ServerConfig(), FixedDegreePolicy(degree), engine=Engine())
    profile = SpeedupProfile([1.0] * 6)  # no speedup: timing is exact
    reqs = [
        make_request(i, d, profile=profile) for i, d in enumerate(demands)
    ]
    for r in reqs:
        server.submit(r)
    server.run_to_completion(len(reqs))
    for r in reqs:
        assert r.remaining_work_ms <= 1e-6
        assert r.queueing_ms >= -1e-9
        assert r.finish_ms >= r.arrival_ms


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.5, max_value=50.0), min_size=2, max_size=20
    )
)
def test_sequential_response_at_least_demand(demands):
    """No request can beat its own demand at degree 1."""
    server = Server(ServerConfig(), FixedDegreePolicy(1), engine=Engine())
    profile = SpeedupProfile([1.0])
    reqs = [make_request(i, d, profile=profile) for i, d in enumerate(demands)]
    for r in reqs:
        server.submit(r)
    server.run_to_completion(len(reqs))
    for r in reqs:
        assert r.response_ms >= r.demand_ms - 1e-6
