"""The gate's Fig 8 cluster check against a direct recomputation.

The ``cluster_consistency`` check's three measurements must equal, bit
for bit, the values computed here from two independent runs: a direct
``run_cluster_experiment`` call, outside the cell and cache layers, and
the single-ISN TPC cell at the gate's moderate load.  Whatever path the
gate takes to run its cluster internally, the numbers it judges may
not move.
"""

from __future__ import annotations

import pytest

from repro.cluster import run_cluster_experiment
from repro.config import ClusterConfig
from repro.exec import CellSpec, ResultCache, memoised_workload, run_cell
from repro.experiments.scenarios import (
    DEFAULT_SEARCH_TARGET_TABLE,
    default_workload_spec,
)
from repro.gate import run_gate, scale_for_mode


@pytest.fixture(scope="module")
def expected() -> dict[str, float]:
    scale = scale_for_mode("fast")
    cluster = run_cluster_experiment(
        memoised_workload(default_workload_spec()),
        "TPC",
        scale.mid_qps,
        scale.cluster_queries,
        scale.seed,
        cluster_config=ClusterConfig(num_isns=scale.cluster_isns),
        target_table=DEFAULT_SEARCH_TARGET_TABLE,
    )
    single = run_cell(
        CellSpec.for_experiment(
            default_workload_spec(),
            "TPC",
            scale.mid_qps,
            scale.n_requests,
            scale.seed,
            target_table=DEFAULT_SEARCH_TARGET_TABLE,
        )
    )
    agg_p99 = cluster.aggregator_percentile(99)
    isn_p99 = cluster.isn_percentile(99)
    return {
        "cluster_agg_p99_over_isn_p99": agg_p99 / isn_p99,
        "cluster_isn_pct_at_agg_p99": cluster.isn_percentile_of_latency(agg_p99),
        "cluster_isn_p99_over_single": isn_p99 / single.summary.p99_ms,
    }


def test_gate_cluster_check_matches_direct_runs(tmp_path, expected):
    report = run_gate(
        mode="fast",
        only=["cluster_consistency"],
        cache=ResultCache(tmp_path / "cache"),
        baselines={},
    )
    check = report.check("cluster_consistency")
    assert check.status == "pass", report.render_summary()
    measured = {m.metric: m.value for m in check.measurements}
    assert measured == expected
