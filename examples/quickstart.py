#!/usr/bin/env python3
"""Quickstart: run TPC against the baselines on one search server.

Builds the calibrated synthetic web-search workload (corpus, inverted
index, measured costs, trained boosted-tree predictor), then replays
the same trace through a simulated index-serving node under four
parallelism policies and prints their tail latencies.

Run:  python examples/quickstart.py
"""

from repro import (
    CellSpec,
    default_target_table,
    default_workload,
    default_workload_spec,
    run_cell,
)
from repro.experiments.report import format_table


def main() -> None:
    print("Building the calibrated search workload (one-off, cached)...")
    workload = default_workload()
    stats = workload.statistics
    report = workload.predictor_report
    print(
        f"  demand: mean={stats.mean_ms:.2f} ms, median={stats.median_ms:.2f} ms, "
        f"p99={stats.p99_ms:.0f} ms, {100 * stats.long_fraction:.1f}% long (>80 ms)"
    )
    print(
        f"  predictor: L1={report.l1_error_ms:.1f} ms, "
        f"precision={report.precision:.2f}, recall={report.recall:.2f}"
    )

    qps = 450.0
    n_requests = 20_000
    table = default_target_table()
    print(f"\nReplaying {n_requests} queries at {qps:g} QPS per policy...")

    rows = []
    for policy in ("Sequential", "AP", "Pred", "TPC"):
        result = run_cell(
            CellSpec.for_experiment(
                default_workload_spec(), policy, qps, n_requests, seed=1,
                target_table=table,
            )
        )
        summary = result.summary
        rows.append(
            [
                policy,
                round(summary.p50_ms, 1),
                round(summary.p95_ms, 1),
                round(summary.p99_ms, 1),
                round(summary.p999_ms, 1),
                f"{100 * result.corrected.mean():.2f}%",
            ]
        )
    print()
    print(
        format_table(
            ["policy", "P50", "P95", "P99", "P99.9", "corrected"],
            rows,
            title=f"Tail latency (ms) at {qps:g} QPS",
        )
    )
    print(
        "\nTPC holds the lowest P99 and P99.9: prediction parallelizes the"
        "\nlong queries early with minimal threads, and dynamic correction"
        "\nrescues the mispredicted ones before they reach the tail."
    )


if __name__ == "__main__":
    main()
