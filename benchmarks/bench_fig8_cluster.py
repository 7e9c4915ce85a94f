"""F8 — Figure 8: tail latency in a cluster of 40 ISNs at 300 QPS.

(a) CDF of aggregator response time for Sequential/AP/Pred/TPC:
    the paper reports P99 of 132.2 / 108.9 / 77.7 ms for AP / Pred /
    TPC — a 29 % reduction over the best prior work — and TPC with
    <0.4 % of queries over 100 ms vs 3.3 % (AP) and 1.7 % (Pred).
(b) The aggregator's P99 corresponds to a much higher per-ISN
    percentile (~P99.8), because the aggregator waits for the slowest
    of 40 ISNs.
"""

from conftest import (
    BENCH_SEED,
    cluster_isns,
    cluster_queries,
    emit,
    exec_kwargs,
)
from repro.config import ClusterConfig
from repro.exec import CellSpec, run_sweep
from repro.experiments import default_workload_spec
from repro.experiments.report import format_cdf_rows, format_table

POLICIES = ("Sequential", "AP", "Pred", "TPC")
#: The paper runs the cluster at 300 QPS — the operating point where
#: AP has started degrading while Pred/TPC hold.  Our reproduction's
#: AP backs off more gracefully, so the equivalent operating point
#: sits at a somewhat higher load (see EXPERIMENTS.md).
QPS = 450.0


def _run(search_table):
    """One cluster cell per policy, run through the exec pool and cache."""
    cells = [
        CellSpec.for_experiment(
            default_workload_spec(),
            policy,
            QPS,
            cluster_queries(),
            BENCH_SEED,
            target_table=search_table,
            cluster_config=ClusterConfig(num_isns=cluster_isns()),
        )
        for policy in POLICIES
    ]
    return dict(zip(POLICIES, run_sweep(cells, **exec_kwargs())))


def _fraction_slower_than(result, latency_ms: float) -> float:
    """Fraction of aggregator responses slower than ``latency_ms``."""
    return float((result.responses_ms > latency_ms).mean())


def test_fig8a_cluster_cdf(benchmark, search_table):
    results = benchmark.pedantic(
        lambda: _run(search_table), rounds=1, iterations=1
    )
    # A cluster cell's responses_ms are the aggregator latencies.
    latencies = {p: results[p].responses_ms for p in POLICIES}
    p99 = {p: results[p].summary.p99_ms for p in POLICIES}
    slow = {p: _fraction_slower_than(results[p], 100.0) for p in POLICIES}
    emit(
        "fig8a_cluster_cdf",
        format_cdf_rows(latencies, [95, 98, 99, 99.5, 99.9])
        + "\n\n"
        + format_table(
            ["policy", "P99 (ms)", "% slower than 100ms"],
            [
                [p, round(p99[p], 1), round(100 * slow[p], 2)]
                for p in POLICIES
            ],
            title=f"Figure 8(a) - aggregator latency, {cluster_isns()} ISNs @ {QPS:g} QPS",
        ),
    )

    # TPC achieves the lowest cluster P99 of all policies.
    best_prior = min(p99[p] for p in POLICIES[:-1])
    assert p99["TPC"] < best_prior
    # TPC leaves the smallest fraction of responses over 100 ms.
    assert slow["TPC"] <= min(slow[p] for p in POLICIES[:-1])
    # Ordering of the paper: TPC < Pred < AP < Sequential at P99
    # (small tolerance on the Pred/AP middle of the ordering, which is
    # load-point sensitive).
    assert p99["TPC"] < p99["Pred"] * 1.02
    assert p99["Pred"] < p99["AP"] * 1.10
    assert p99["AP"] < p99["Sequential"]

    # Figure 8(b): the aggregator P99 maps to a much higher ISN
    # percentile (paper: ~P99.8 with 40 ISNs).
    tpc = results["TPC"].extras
    isn_pct = tpc["isn_pct_at_agg_p99"]
    emit(
        "fig8b_percentile_mapping",
        format_table(
            ["quantity", "value"],
            [
                ["aggregator P99 (ms)", round(p99["TPC"], 1)],
                ["same latency at ISN percentile", round(isn_pct, 2)],
                ["ISN P99 (ms)", round(tpc["isn_p99_ms"], 1)],
            ],
            title="Figure 8(b) - aggregator vs ISN percentile",
        ),
    )
    assert isn_pct > 99.4
