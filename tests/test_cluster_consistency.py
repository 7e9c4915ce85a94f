"""Cross-ISN consistency properties of the cluster simulation."""

import itertools

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

    def test_parallel_matches_serial_bit_for_bit(
        self, tiny_search_workload, target_table
    ):
        # The two execution paths — the coupled shared-engine runner
        # (workers=1) and the decomposed per-ISN fan-out (workers=2) —
        # must agree exactly: same aggregator latencies, same
        # per-replica latencies, same per-ISN recorders.  Covered for
        # omitted and explicit no-op resilience options, a
        # non-correcting and a correcting policy, and a one- and a
        # three-ISN cluster; none of them reports resilience stats.
        options = {
            "omitted": {},
            "explicit-noop": dict(
                fault_spec=FaultSpec.none(),
                hedge_policy=HedgePolicy.wait_for_all(),
            ),
        }
        for (label, opts), policy, num_isns in itertools.product(
            options.items(), ("Sequential", "TPC"), (1, 3)
        ):
            case = f"{label}/{policy}/{num_isns} ISNs"
            kwargs = dict(
                qps=200.0, n_queries=150, seed=23,
                cluster_config=ClusterConfig(num_isns=num_isns),
                target_table=target_table,
                **opts,
            )
            coupled = run_cluster_experiment(
                tiny_search_workload, policy, workers=1, **kwargs
            )
            decomposed = run_cluster_experiment(
                tiny_search_workload, policy, workers=2, **kwargs
            )
            np.testing.assert_array_equal(
                coupled.aggregator_latencies_ms,
                decomposed.aggregator_latencies_ms,
                err_msg=case,
            )
            np.testing.assert_array_equal(
                coupled.isn_latencies_ms,
                decomposed.isn_latencies_ms,
                err_msg=case,
            )
            assert len(coupled.isn_recorders) == num_isns, case
            for a, b in zip(coupled.isn_recorders, decomposed.isn_recorders):
                np.testing.assert_array_equal(
                    a.responses_ms, b.responses_ms, err_msg=case
                )
                np.testing.assert_array_equal(
                    a.max_degrees, b.max_degrees, err_msg=case
                )
            assert coupled.resilience is None, case
            assert decomposed.resilience is None, case

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
