"""Cross-ISN consistency properties of the cluster simulation."""

import numpy as np
import pytest

from repro.cluster import run_cluster_experiment
from repro.config import ClusterConfig
from repro.resilience import FaultSpec, HedgePolicy


@pytest.fixture(scope="module")
def cluster_result(tiny_search_workload, target_table):
    return run_cluster_experiment(
        tiny_search_workload,
        "TPC",
        qps=250.0,
        n_queries=600,
        seed=41,
        cluster_config=ClusterConfig(num_isns=6),
        target_table=target_table,
    )


class TestClusterConsistency:
    def test_every_isn_serves_every_query(self, cluster_result):
        rids = [set() for _ in range(6)]
        # Each recorder saw all 600 logical queries exactly once.
        for recorder in cluster_result.isn_recorders:
            assert len(recorder) == 600

    def test_aggregator_latency_dominates_every_replica(self, cluster_result):
        lat = cluster_result.isn_latencies_ms.reshape(600, 6)
        slowest = lat.max(axis=1)
        agg = np.sort(cluster_result.aggregator_latencies_ms)
        # Aggregator latency = slowest replica + network overhead, so
        # sorted aggregator latencies dominate sorted slowest-replica
        # latencies element-wise.
        np.testing.assert_array_less(np.sort(slowest) - 1e-9, agg)

    def test_network_overhead_added_exactly_once(
        self, tiny_search_workload, target_table
    ):
        no_net = run_cluster_experiment(
            tiny_search_workload, "Sequential", 100.0, 150, 9,
            cluster_config=ClusterConfig(
                num_isns=2, network_overhead_ms=0.0, demand_jitter_sigma=0.0
            ),
            target_table=target_table,
        )
        with_net = run_cluster_experiment(
            tiny_search_workload, "Sequential", 100.0, 150, 9,
            cluster_config=ClusterConfig(
                num_isns=2, network_overhead_ms=5.0, demand_jitter_sigma=0.0
            ),
            target_table=target_table,
        )
        delta = (
            with_net.aggregator_latencies_ms - no_net.aggregator_latencies_ms
        )
        np.testing.assert_allclose(delta, 5.0, atol=1e-6)

    def test_zero_jitter_makes_replicas_identical(
        self, tiny_search_workload, target_table
    ):
        result = run_cluster_experiment(
            tiny_search_workload, "Sequential", 50.0, 100, 13,
            cluster_config=ClusterConfig(
                num_isns=3, demand_jitter_sigma=0.0
            ),
            target_table=target_table,
        )
        lat = result.isn_latencies_ms.reshape(100, 3)
        # At 50 QPS with Sequential there is no queueing: all replicas
        # of a query have identical demand, hence identical latency.
        spread = lat.max(axis=1) - lat.min(axis=1)
        assert np.median(spread) < 1e-6

    @pytest.mark.parametrize("num_isns", [1, 3])
    @pytest.mark.parametrize("policy", ["Sequential", "TPC"])
    def test_noop_options_match_omitted(
        self, tiny_search_workload, target_table, policy, num_isns
    ):
        # Explicit no-op fault and hedge options must leave the run
        # bit-identical to one that omits them — same aggregator
        # latencies, per-replica latencies and per-ISN recorders — and
        # neither run reports resilience stats.
        kwargs = dict(
            qps=200.0, n_queries=150, seed=23,
            cluster_config=ClusterConfig(num_isns=num_isns),
            target_table=target_table,
        )
        omitted = run_cluster_experiment(tiny_search_workload, policy, **kwargs)
        explicit = run_cluster_experiment(
            tiny_search_workload, policy,
            fault_spec=FaultSpec.none(),
            hedge_policy=HedgePolicy.wait_for_all(),
            **kwargs,
        )
        np.testing.assert_array_equal(
            omitted.aggregator_latencies_ms, explicit.aggregator_latencies_ms
        )
        np.testing.assert_array_equal(
            omitted.isn_latencies_ms, explicit.isn_latencies_ms
        )
        assert len(omitted.isn_recorders) == num_isns
        for a, b in zip(omitted.isn_recorders, explicit.isn_recorders):
            np.testing.assert_array_equal(a.responses_ms, b.responses_ms)
            np.testing.assert_array_equal(a.max_degrees, b.max_degrees)
        assert omitted.resilience is None
        assert explicit.resilience is None

    def test_same_seed_reproducible(self, tiny_search_workload, target_table):
        kwargs = dict(
            qps=150.0, n_queries=200, seed=77,
            cluster_config=ClusterConfig(num_isns=3),
            target_table=target_table,
        )
        a = run_cluster_experiment(tiny_search_workload, "TPC", **kwargs)
        b = run_cluster_experiment(tiny_search_workload, "TPC", **kwargs)
        np.testing.assert_array_equal(
            a.aggregator_latencies_ms, b.aggregator_latencies_ms
        )
