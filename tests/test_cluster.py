"""Tests for the aggregator and cluster experiment (Section 4.5)."""

import numpy as np
import pytest

from repro.cluster import Aggregator, run_cluster_experiment
from repro.config import ClusterConfig
from repro.errors import ConfigError, SimulationError


class TestAggregator:
    def test_latency_is_slowest_isn_plus_network(self):
        agg = Aggregator(num_isns=3, network_overhead_ms=2.0)
        agg.begin(0, arrival_ms=10.0)
        assert agg.on_isn_complete(0, 15.0, isn=0) is False
        assert agg.on_isn_complete(0, 30.0, isn=1) is False
        assert agg.on_isn_complete(0, 20.0, isn=2) is True
        assert agg.latencies_ms == [pytest.approx(22.0)]  # 30 - 10 + 2

    def test_per_isn_latencies_recorded(self):
        agg = Aggregator(2, 0.0)
        agg.begin(0, 0.0)
        agg.on_isn_complete(0, 5.0, isn=0)
        agg.on_isn_complete(0, 9.0, isn=1)
        assert sorted(agg.isn_latencies_ms) == [5.0, 9.0]

    def test_interleaved_queries(self):
        agg = Aggregator(2, 0.0)
        agg.begin(0, 0.0)
        agg.begin(1, 1.0)
        agg.on_isn_complete(1, 4.0, isn=0)
        agg.on_isn_complete(0, 5.0, isn=0)
        assert agg.on_isn_complete(1, 6.0, isn=1) is True
        assert agg.completed == 1  # query 0 still waits for ISN 1
        assert agg.on_isn_complete(0, 7.0, isn=1) is True
        assert agg.completed == 2

    def test_duplicate_begin_rejected(self):
        agg = Aggregator(2, 0.0)
        agg.begin(0, 0.0)
        with pytest.raises(SimulationError):
            agg.begin(0, 1.0)

    def test_unknown_completion_rejected(self):
        agg = Aggregator(2, 0.0)
        with pytest.raises(SimulationError):
            agg.on_isn_complete(5, 1.0, isn=0)

    def test_completion_before_arrival_rejected(self):
        agg = Aggregator(1, 0.0)
        agg.begin(0, 10.0)
        with pytest.raises(SimulationError):
            agg.on_isn_complete(0, 5.0, isn=0)

    def test_duplicate_isn_completion_rejected(self):
        agg = Aggregator(3, 0.0)
        agg.begin(0, 0.0)
        agg.on_isn_complete(0, 5.0, isn=1)
        with pytest.raises(SimulationError):
            agg.on_isn_complete(0, 6.0, isn=1)

    def test_out_of_range_isn_rejected(self):
        agg = Aggregator(2, 0.0)
        agg.begin(0, 0.0)
        with pytest.raises(SimulationError):
            agg.on_isn_complete(0, 1.0, isn=2)

    def test_wait_for_k_answers_early_and_counts_late(self):
        agg = Aggregator(3, network_overhead_ms=0.0, wait_for_k=2)
        agg.begin(0, 0.0)
        assert agg.on_isn_complete(0, 5.0, isn=0) is False
        assert agg.on_isn_complete(0, 8.0, isn=2) is True
        assert agg.latencies_ms == [pytest.approx(8.0)]
        assert agg.k_coverages == [pytest.approx(2.0 / 3.0)]
        # The third replica is tolerated, counted late, still deduped.
        assert agg.on_isn_complete(0, 11.0, isn=1) is False
        assert agg.late_completions == 1
        with pytest.raises(SimulationError):
            agg.on_isn_complete(0, 12.0, isn=1)


class TestClusterExperiment:
    @pytest.fixture(scope="class")
    def small_cluster_result(self, tiny_search_workload, target_table):
        return run_cluster_experiment(
            tiny_search_workload,
            "TPC",
            qps=200.0,
            n_queries=800,
            seed=17,
            cluster_config=ClusterConfig(num_isns=5),
            target_table=target_table,
        )

    def test_all_queries_aggregated(self, small_cluster_result):
        assert len(small_cluster_result.aggregator_latencies_ms) == 800
        assert len(small_cluster_result.isn_latencies_ms) == 800 * 5

    def test_aggregator_waits_for_slowest(self, small_cluster_result):
        """Aggregator latency percentiles dominate ISN percentiles at
        the same level (max of 5 samples stochastically dominates)."""
        for p in (50, 95, 99):
            assert small_cluster_result.aggregator_percentile(
                p
            ) >= small_cluster_result.isn_percentile(p)

    def test_aggregator_p99_maps_to_higher_isn_percentile(
        self, small_cluster_result
    ):
        """Figure 8(b): reducing aggregator P99 requires reducing a much
        higher percentile at each individual ISN."""
        p99 = small_cluster_result.aggregator_percentile(99)
        isn_pct = small_cluster_result.isn_percentile_of_latency(p99)
        assert isn_pct > 99.0

    def test_per_isn_recorders_complete(self, small_cluster_result):
        for recorder in small_cluster_result.isn_recorders:
            assert len(recorder) == 800

    def test_fraction_slower_than(self, small_cluster_result):
        assert small_cluster_result.fraction_slower_than(0.0) == 1.0
        assert small_cluster_result.fraction_slower_than(1e9) == 0.0

    def test_demand_jitter_spreads_isn_latencies(
        self, tiny_search_workload, target_table
    ):
        result = run_cluster_experiment(
            tiny_search_workload,
            "Sequential",
            qps=50.0,
            n_queries=200,
            seed=21,
            cluster_config=ClusterConfig(num_isns=4, demand_jitter_sigma=0.3),
            target_table=target_table,
        )
        # Under light load with Sequential, per-ISN latency ~ demand,
        # so jitter must show up across replicas of the same query.
        lat = result.isn_latencies_ms.reshape(200, 4)
        spreads = lat.max(axis=1) / lat.min(axis=1)
        assert np.median(spreads) > 1.2

    def test_rejects_zero_queries(self, tiny_search_workload, target_table):
        with pytest.raises(ConfigError):
            run_cluster_experiment(
                tiny_search_workload, "TPC", 100.0, 0, 1,
                target_table=target_table,
            )
