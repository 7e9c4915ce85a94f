"""Tests for repro.resilience: faults, hedging, partial-wait aggregation."""

import numpy as np
import pytest

from repro.cluster import run_cluster_experiment
from repro.config import ClusterConfig, ServerConfig
from repro.errors import ConfigError, SimulationError
from repro.exec.cache import ResultCache
from repro.exec.pool import run_cell, run_sweep
from repro.exec.spec import CellSpec, WorkloadSpec
from repro.resilience import (
    FaultKind,
    FaultSpec,
    FaultWindow,
    HedgePolicy,
    sample_fault_spec,
)
from repro.resilience.scenarios import get_scenario, run_scenario
from repro.rng import RngFactory
from repro.sim.engine import Engine
from repro.sim.request import RequestState
from repro.sim.server import Server

from conftest import make_request
from test_server import FixedDegreePolicy


# ---------------------------------------------------------------------------
# FaultSpec / FaultWindow
# ---------------------------------------------------------------------------

class TestFaultSpec:
    def test_window_validation(self):
        with pytest.raises(ConfigError):
            FaultWindow("bogus", 0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            FaultWindow(FaultKind.SLOWDOWN, 0, 5.0, 1.0)  # t1 < t0
        with pytest.raises(ConfigError):
            FaultWindow(FaultKind.SLOWDOWN, 0, 0.0, 1.0, severity=0.5)
        with pytest.raises(ConfigError):
            FaultWindow(FaultKind.DEGRADED, 0, 0.0, 1.0, severity=2.5)
        with pytest.raises(ConfigError):
            FaultWindow(FaultKind.SLOWDOWN, -1, 0.0, 1.0, severity=2.0)

    def test_windows_canonically_ordered(self):
        a = FaultWindow(FaultKind.SLOWDOWN, 1, 5.0, 9.0, 2.0)
        b = FaultWindow(FaultKind.BLACKOUT, 0, 1.0, 2.0)
        assert FaultSpec((a, b)).windows == FaultSpec((b, a)).windows

    def test_noop_and_queries(self):
        assert FaultSpec.none().is_noop
        spec = FaultSpec.straggler(1, 3.0, t0_ms=10.0, t1_ms=20.0)
        assert not spec.is_noop
        assert spec.demand_multiplier(1, 15.0) == pytest.approx(3.0)
        assert spec.demand_multiplier(1, 20.0) == 1.0  # half-open
        assert spec.demand_multiplier(0, 15.0) == 1.0
        assert spec.worker_limit(1, 15.0) is None

    def test_overlapping_slowdowns_multiply(self):
        spec = FaultSpec(
            (
                FaultWindow(FaultKind.SLOWDOWN, 0, 0.0, 10.0, 2.0),
                FaultWindow(FaultKind.SLOWDOWN, 0, 5.0, 15.0, 3.0),
            )
        )
        assert spec.demand_multiplier(0, 7.0) == pytest.approx(6.0)

    def test_degraded_takes_smallest_cap(self):
        spec = FaultSpec(
            (
                FaultWindow(FaultKind.DEGRADED, 0, 0.0, 10.0, 8.0),
                FaultWindow(FaultKind.DEGRADED, 0, 5.0, 15.0, 4.0),
            )
        )
        assert spec.worker_limit(0, 2.0) == 8  # only the 8-cap open
        assert spec.worker_limit(0, 7.0) == 4  # overlap: smallest wins
        assert spec.worker_limit(0, 20.0) is None

    def test_validate_for_bounds(self):
        spec = FaultSpec.straggler(5, 2.0)
        with pytest.raises(ConfigError):
            spec.validate_for(4)
        spec.validate_for(6)

    def test_rolling_blackout_allowed_simultaneous_rejected(self):
        # Staggered blackouts covering every ISN are fine ...
        rolling = FaultSpec.rolling_blackout(3, 100.0, 200.0)
        rolling.validate_for(3)
        # ... but a spec with every ISN down at once is unservable.
        together = FaultSpec(
            tuple(
                FaultWindow(FaultKind.BLACKOUT, isn, 0.0, 50.0)
                for isn in range(3)
            )
        )
        with pytest.raises(ConfigError):
            together.validate_for(3)

    def test_transition_times_sorted_unique(self):
        spec = FaultSpec.rolling_blackout(2, 100.0, 50.0)
        points = spec.transition_times(FaultKind.BLACKOUT)
        assert points == sorted(set(points))
        assert (0.0, 0) in points and (150.0, 1) in points

    def test_sampling_deterministic(self):
        kwargs = dict(
            num_isns=6, horizon_ms=5_000.0,
            slowdown_probability=0.5, degraded_probability=0.5,
        )
        a = sample_fault_spec(RngFactory(7), **kwargs)
        b = sample_fault_spec(RngFactory(7), **kwargs)
        assert a == b
        c = sample_fault_spec(RngFactory(8), **kwargs)
        assert a != c  # different seed, different campaign

    def test_merged_with(self):
        merged = FaultSpec.straggler(0, 2.0).merged_with(
            FaultSpec.degraded(1, 4, 0.0, 10.0)
        )
        assert len(merged.windows) == 2


# ---------------------------------------------------------------------------
# HedgePolicy
# ---------------------------------------------------------------------------

class TestHedgePolicy:
    def test_default_is_noop(self):
        assert HedgePolicy().is_noop(5)
        assert HedgePolicy.wait_for_all().effective_k(5) == 5

    def test_partial_and_hedged_are_not_noop(self):
        assert not HedgePolicy.partial(3).is_noop(5)
        assert not HedgePolicy.hedged(50.0).is_noop(5)
        assert HedgePolicy.partial(5).is_noop(5)  # k == n is wait-for-all

    def test_validation(self):
        with pytest.raises(ConfigError):
            HedgePolicy(wait_for_k=0)
        with pytest.raises(ConfigError):
            HedgePolicy(hedge_timeout_ms=0.0)
        with pytest.raises(ConfigError):
            HedgePolicy(max_hedges_per_query=0)
        with pytest.raises(ConfigError):
            HedgePolicy.partial(6).effective_k(5)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: HedgePolicy(hedge_timeout_ms=v),
        lambda v: FaultWindow(FaultKind.SLOWDOWN, 0, 0.0, 1.0, severity=v),
        lambda v: ClusterConfig(network_overhead_ms=v),
        lambda v: ClusterConfig(demand_jitter_sigma=v),
    ],
    ids=["hedge_timeout_ms", "slowdown_severity", "network_overhead_ms",
         "demand_jitter_sigma"],
)
def test_non_finite_spec_rejected_up_front(build, value):
    # Each used to be accepted and then either die mid-run with a
    # misleading SimulationError or yield silently wrong latencies.
    with pytest.raises(ConfigError):
        build(value)


# ---------------------------------------------------------------------------
# Server cancellation and worker limits
# ---------------------------------------------------------------------------

class TestServerResilienceHooks:
    def test_cancel_running_returns_partial_work(self):
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=Engine())
        req = make_request(0, 50.0)
        server.submit(req)
        server.engine.run_until(20.0)
        work = server.cancel_request(req)
        assert req.state is RequestState.CANCELLED
        # Degree 1, uncontended: 20 ms wall-clock = 20 ms of work.
        assert work == pytest.approx(20.0, abs=1e-6)
        assert server.total_active_threads == 0
        assert server.cancelled_count == 1
        assert len(server.recorder) == 0  # never recorded as completed

    def test_cancel_queued_returns_zero_and_frees_slot(self):
        server = Server(
            ServerConfig(worker_threads=1, max_parallelism=1),
            FixedDegreePolicy(1),
            engine=Engine(),
        )
        first = make_request(0, 30.0)
        queued = make_request(1, 10.0)
        server.submit(first)
        server.submit(queued)
        assert server.queue_length == 1
        assert server.cancel_request(queued) == 0.0
        assert server.queue_length == 0
        server.run_to_completion(1)

    def test_cancel_completed_rejected(self):
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=Engine())
        req = make_request(0, 5.0)
        server.submit(req)
        server.run_to_completion(1)
        with pytest.raises(SimulationError):
            server.cancel_request(req)

    def test_cancellation_unblocks_queue(self):
        server = Server(
            ServerConfig(worker_threads=1, max_parallelism=1),
            FixedDegreePolicy(1),
            engine=Engine(),
        )
        hog = make_request(0, 1000.0)
        waiting = make_request(1, 5.0)
        server.submit(hog)
        server.submit(waiting)
        server.cancel_request(hog)
        server.run_to_completion(1)
        assert waiting.state is RequestState.COMPLETED

    def test_worker_limit_gates_dispatch_and_drains(self):
        server = Server(
            ServerConfig(worker_threads=4, max_parallelism=1),
            FixedDegreePolicy(1),
            engine=Engine(),
        )
        reqs = [make_request(i, 40.0) for i in range(4)]
        for r in reqs:
            server.submit(r)
        assert server.running_count == 4
        server.set_worker_limit(2)
        # No preemption: the four running requests keep their workers.
        assert server.running_count == 4
        late = make_request(9, 10.0)
        server.submit(late)
        assert late.state is RequestState.QUEUED  # gated by the cap
        server.run_to_completion(5)
        server.set_worker_limit(None)
        assert server.worker_limit == server.config.worker_threads

    def test_worker_limit_validation(self):
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=Engine())
        with pytest.raises(SimulationError):
            server.set_worker_limit(0)


# ---------------------------------------------------------------------------
# Cluster-level behaviour
# ---------------------------------------------------------------------------

class TestResilientCluster:
    def test_single_isn_cluster_matches_plain_experiment(
        self, tiny_search_workload, tiny_workload_spec, target_table
    ):
        # One ISN, zero jitter, zero network overhead, no faults: the
        # cluster run degenerates to the plain single-server experiment.
        cluster = run_cluster_experiment(
            tiny_search_workload, "TPC", qps=200.0, n_queries=400, seed=31,
            cluster_config=ClusterConfig(
                num_isns=1, demand_jitter_sigma=0.0, network_overhead_ms=0.0
            ),
            target_table=target_table,
        )
        plain = run_cell(CellSpec.for_experiment(
            tiny_workload_spec, "TPC", qps=200.0, n_requests=400, seed=31,
            target_table=target_table,
        ))
        np.testing.assert_array_equal(
            np.asarray(cluster.isn_recorders[0].responses_ms),
            plain.responses_ms,
        )
        np.testing.assert_array_equal(
            np.sort(cluster.isn_latencies_ms),
            np.sort(plain.responses_ms),
        )

    def test_straggler_hedging_improves_p999(
        self, tiny_search_workload, target_table
    ):
        # Acceptance criterion: on the one-straggler scenario, hedged
        # TPC improves aggregator P99.9 by >= 20 % over wait-for-all.
        fault = FaultSpec.straggler(0, 4.0, t0_ms=0.0, t1_ms=1e7)
        kwargs = dict(
            qps=250.0, n_queries=600, seed=41,
            cluster_config=ClusterConfig(num_isns=4),
            target_table=target_table, fault_spec=fault,
        )
        base = run_cluster_experiment(tiny_search_workload, "TPC", **kwargs)
        hedged = run_cluster_experiment(
            tiny_search_workload, "TPC",
            hedge_policy=HedgePolicy.hedged(60.0), **kwargs,
        )
        p999_base = base.aggregator_percentile(99.9)
        p999_hedged = hedged.aggregator_percentile(99.9)
        assert p999_hedged < 0.8 * p999_base
        stats = hedged.resilience
        assert stats.hedges_issued > 0
        assert stats.hedge_wins > 0
        assert 0.0 < stats.hedge_rate < 1.0
        assert stats.wasted_work_ms > 0.0
        assert stats.wasted_work_fraction < 0.5
        # The unhedged faulted run still reports (empty) accounting.
        assert base.resilience.hedges_issued == 0
        assert base.resilience.wasted_work_ms == 0.0

    def test_resilient_run_deterministic(
        self, tiny_search_workload, target_table
    ):
        fault = FaultSpec.straggler(1, 3.0, t0_ms=0.0, t1_ms=1e7)
        kwargs = dict(
            qps=200.0, n_queries=300, seed=19,
            cluster_config=ClusterConfig(num_isns=3),
            target_table=target_table,
            fault_spec=fault,
            hedge_policy=HedgePolicy.hedged(50.0),
        )
        a = run_cluster_experiment(tiny_search_workload, "TPC", **kwargs)
        b = run_cluster_experiment(tiny_search_workload, "TPC", **kwargs)
        np.testing.assert_array_equal(
            a.aggregator_latencies_ms, b.aggregator_latencies_ms
        )
        np.testing.assert_array_equal(a.isn_latencies_ms, b.isn_latencies_ms)
        assert a.resilience == b.resilience

    def test_wait_for_k_reduces_tail_and_counts_late(
        self, tiny_search_workload, target_table
    ):
        kwargs = dict(
            qps=250.0, n_queries=400, seed=29,
            cluster_config=ClusterConfig(num_isns=4),
            target_table=target_table,
        )
        all_of = run_cluster_experiment(tiny_search_workload, "TPC", **kwargs)
        partial = run_cluster_experiment(
            tiny_search_workload, "TPC",
            hedge_policy=HedgePolicy.partial(3), **kwargs,
        )
        assert partial.resilience is not None
        assert (
            partial.aggregator_percentile(99)
            <= all_of.aggregator_percentile(99)
        )
        stats = partial.resilience
        assert stats.late_completions > 0
        assert stats.k_coverage_mean == pytest.approx(0.75, abs=0.01)

    def test_blackout_strict_wait_for_all_rejected(
        self, tiny_search_workload, target_table
    ):
        with pytest.raises(ConfigError):
            run_cluster_experiment(
                tiny_search_workload, "TPC", qps=100.0, n_queries=50, seed=3,
                cluster_config=ClusterConfig(num_isns=3),
                target_table=target_table,
                fault_spec=FaultSpec.blackout(0, 10.0, 50.0),
            )

    def test_blackout_with_partial_wait_terminates(
        self, tiny_search_workload, target_table
    ):
        result = run_cluster_experiment(
            tiny_search_workload, "TPC", qps=200.0, n_queries=300, seed=23,
            cluster_config=ClusterConfig(num_isns=3),
            target_table=target_table,
            fault_spec=FaultSpec.rolling_blackout(
                3, duration_ms=200.0, stagger_ms=500.0, start_ms=100.0
            ),
            hedge_policy=HedgePolicy.partial(2),
        )
        assert len(result.aggregator_latencies_ms) == 300
        stats = result.resilience
        assert stats.dropped_replicas > 0
        assert stats.k_coverage_mean < 1.0

    def test_hedging_recovers_blacked_out_shard(
        self, tiny_search_workload, target_table
    ):
        # Wait-for-all + blackout is only serviceable because hedging
        # re-issues the dropped shard on a healthy node.
        result = run_cluster_experiment(
            tiny_search_workload, "TPC", qps=100.0, n_queries=150, seed=7,
            cluster_config=ClusterConfig(num_isns=3),
            target_table=target_table,
            fault_spec=FaultSpec.blackout(0, 0.0, 400.0),
            hedge_policy=HedgePolicy.hedged(40.0),
        )
        assert len(result.aggregator_latencies_ms) == 150
        assert result.resilience.dropped_replicas > 0
        assert result.resilience.hedge_wins > 0

    def test_replicas_built_when_their_query_arrives(
        self, tiny_search_workload, target_table, monkeypatch
    ):
        # Fan-out creates a query's replica Requests at its arrival, so
        # none exists yet when the engine takes its first step.
        import repro.resilience.cluster as resilient
        from repro.sim.request import Request

        created = []

        class CountingRequest(Request):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                created.append(None)
                super().__init__(*args, **kwargs)

        at_first_step = []
        step = Engine.step

        def counting_step(engine):
            if not at_first_step:
                at_first_step.append(len(created))
            return step(engine)

        monkeypatch.setattr(resilient, "Request", CountingRequest)
        monkeypatch.setattr(Engine, "step", counting_step)
        result = run_cluster_experiment(
            tiny_search_workload, "TPC", qps=200.0, n_queries=120, seed=5,
            cluster_config=ClusterConfig(num_isns=4),
            target_table=target_table,
            fault_spec=FaultSpec.straggler(0, 2.0, t0_ms=0.0, t1_ms=1e7),
        )
        assert len(result.aggregator_latencies_ms) == 120
        assert at_first_step == [0]
        assert len(created) == 4 * 120

    def test_hedged_rolling_blackout_terminates(self, tiny_search_workload):
        # A replica killed after its query's hedge timer fired used to
        # leave the shard unserved: "engine drained with 399/400".
        result = run_cluster_experiment(
            tiny_search_workload, "Sequential", qps=300.0, n_queries=400,
            seed=5,
            cluster_config=ClusterConfig(num_isns=4),
            fault_spec=FaultSpec.rolling_blackout(4, 150.0, 300.0, 50.0),
            hedge_policy=HedgePolicy.hedged(
                30.0, tie_cancel=False, wait_for_k=3
            ),
        )
        assert len(result.aggregator_latencies_ms) == 400
        stats = result.resilience
        assert stats.hedges_issued > 0
        assert stats.hedge_wins <= stats.hedges_issued

    def test_degraded_window_applies(
        self, tiny_search_workload, target_table
    ):
        slow = run_cluster_experiment(
            tiny_search_workload, "TPC", qps=250.0, n_queries=300, seed=13,
            cluster_config=ClusterConfig(num_isns=2),
            target_table=target_table,
            fault_spec=FaultSpec.degraded(0, workers=1, t0_ms=0.0, t1_ms=1e7),
        )
        healthy = run_cluster_experiment(
            tiny_search_workload, "TPC", qps=250.0, n_queries=300, seed=13,
            cluster_config=ClusterConfig(num_isns=2),
            target_table=target_table,
        )
        # A one-worker ISN forces sequential dispatch: its tail (and so
        # the aggregator tail) must be strictly worse than healthy.
        assert (
            slow.aggregator_percentile(99) > healthy.aggregator_percentile(99)
        )


# ---------------------------------------------------------------------------
# exec-layer integration (cluster cells, hashing, caching)
# ---------------------------------------------------------------------------

def _tiny_workload_spec(tiny_search_workload):
    spec = WorkloadSpec.from_workload(tiny_search_workload)
    assert spec is not None, "tiny workload must carry provenance"
    return spec


class TestExecIntegration:
    def test_fault_spec_changes_cell_hash(
        self, tiny_search_workload, target_table
    ):
        wspec = _tiny_workload_spec(tiny_search_workload)
        base = dict(
            workload=wspec, policy_name="TPC", qps=100.0, n_requests=50,
            seed=1, target_table=target_table,
            cluster_config=ClusterConfig(num_isns=2),
        )
        plain = CellSpec.for_experiment(**base)
        faulted = CellSpec.for_experiment(
            fault_spec=FaultSpec.straggler(0, 2.0), **base
        )
        hedged = CellSpec.for_experiment(
            hedge_policy=HedgePolicy.hedged(50.0), **base
        )
        assert len({plain.content_hash, faulted.content_hash,
                    hedged.content_hash}) == 3
        # Equal specs hash equally (frozen value semantics).
        again = CellSpec.for_experiment(
            fault_spec=FaultSpec.straggler(0, 2.0), **base
        )
        assert faulted.content_hash == again.content_hash

    def test_resilience_options_require_cluster(self, tiny_search_workload):
        wspec = _tiny_workload_spec(tiny_search_workload)
        with pytest.raises(ConfigError):
            CellSpec.for_experiment(
                wspec, "TPC", 100.0, 50, 1,
                fault_spec=FaultSpec.straggler(0, 2.0),
            )

    def test_cluster_cell_executes_and_caches(
        self, tiny_search_workload, target_table, tmp_path
    ):
        wspec = _tiny_workload_spec(tiny_search_workload)
        spec = CellSpec.for_experiment(
            wspec, "TPC", 200.0, 150, 5,
            target_table=target_table,
            cluster_config=ClusterConfig(num_isns=2),
            fault_spec=FaultSpec.straggler(0, 3.0),
            hedge_policy=HedgePolicy.hedged(60.0),
        )
        cache = ResultCache(tmp_path)
        cold = run_cell(spec, cache=cache)
        assert len(cold.responses_ms) == 150
        assert cold.extras["hedges_issued"] >= 0
        assert cold.extras["num_isns"] == 2.0
        warm = run_cell(spec, cache=cache)
        assert warm.wall_time_s == 0.0  # served from cache
        np.testing.assert_array_equal(cold.responses_ms, warm.responses_ms)
        assert cold.extras == warm.extras

    def test_cluster_cells_parallel_match_serial(
        self, tiny_search_workload, target_table
    ):
        wspec = _tiny_workload_spec(tiny_search_workload)
        cells = [
            CellSpec.for_experiment(
                wspec, policy, 200.0, 120, 5,
                target_table=target_table,
                cluster_config=ClusterConfig(num_isns=2),
                fault_spec=FaultSpec.straggler(0, 3.0),
                hedge_policy=HedgePolicy.hedged(60.0),
            )
            for policy in ("Sequential", "TPC")
        ]
        serial = run_sweep(cells, workers=1)
        parallel = run_sweep(cells, workers=2)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.responses_ms, b.responses_ms)
            assert a.extras == b.extras


# ---------------------------------------------------------------------------
# Scenarios and CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def straggler_result(tiny_search_workload, target_table):
    """One fast one-straggler scenario run shared across tests."""
    return run_scenario(
        "one-straggler",
        fast=True,
        workers=1,
        workload_spec=_tiny_workload_spec(tiny_search_workload),
        target_table=target_table,
    )


class TestScenarios:
    def test_registry_lookup(self):
        assert get_scenario("one-straggler").name == "one-straggler"
        with pytest.raises(ConfigError):
            get_scenario("nope")

    def test_one_straggler_scenario_runs(self, straggler_result):
        result = straggler_result
        assert result.num_isns == 4
        assert set(result.variant_labels) == {"wait-all", "hedge-60ms"}
        for policy in ("Sequential", "Pred", "TPC"):
            for variant in result.variant_labels:
                row = result.row(policy, variant)
                assert row["p999_ms"] > 0
        # Hedging must beat wait-for-all on the straggler for TPC.
        assert result.improvement("TPC", "hedge-60ms") >= 0.2
        hedged = result.row("TPC", "hedge-60ms")
        assert hedged["hedge_rate"] > 0.0
        assert hedged["wasted_work_ms"] > 0.0

    def test_cli_list(self, capsys):
        from repro.resilience.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "healthy-baseline", "one-straggler",
            "rolling-blackout", "overloaded-hedging",
        ):
            assert name in out

    def test_report_roundtrip(self, straggler_result, tmp_path):
        import json

        from repro.artifacts import write_json
        from repro.resilience.report import build_report, render_summary

        report = build_report([straggler_result])
        assert report["schema_version"] == 1
        assert report["status"] == "ok"
        path = write_json(report, tmp_path / "BENCH_resilience.json")
        loaded = json.loads(path.read_text())
        assert loaded["scenarios"][0]["name"] == "one-straggler"
        rows = loaded["scenarios"][0]["rows"]
        assert {r["policy"] for r in rows} == {"Sequential", "Pred", "TPC"}
        summary = render_summary([straggler_result])
        assert "one-straggler" in summary and "TPC" in summary
