#!/usr/bin/env python3
"""Partition-aggregate web search: a cluster of ISNs under TPC.

Reproduces the Section 4.5 scenario: a query fans out to every
index-serving node, the aggregator waits for all of them, so the
slowest ISN sets the user-visible latency.  The example shows

1. why the cluster's P99 is governed by a much higher per-ISN
   percentile (the paper's Figure 8(b) order-statistics effect), and
2. how much TPC improves the user-visible tail over the baselines.

Each policy is one cluster cell; the four run in one sweep (in
parallel under ``REPRO_BENCH_WORKERS``, cached under
``REPRO_EXEC_CACHE=1``).

Run:  python examples/search_cluster.py  [--isns 16] [--queries 3000]
"""

import argparse

from repro import (
    CellSpec,
    default_target_table,
    default_workload_spec,
    run_sweep,
)
from repro.config import ClusterConfig
from repro.experiments.report import format_table

POLICIES = ("Sequential", "AP", "Pred", "TPC")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--isns", type=int, default=16,
                        help="number of index-serving nodes")
    parser.add_argument("--queries", type=int, default=3_000,
                        help="logical queries to replay")
    parser.add_argument("--qps", type=float, default=450.0,
                        help="offered load in queries per second")
    args = parser.parse_args()

    cells = [
        CellSpec.for_experiment(
            default_workload_spec(),
            policy,
            args.qps,
            args.queries,
            seed=3,
            target_table=default_target_table(),
            cluster_config=ClusterConfig(num_isns=args.isns),
        )
        for policy in POLICIES
    ]

    print(
        f"Replaying {args.queries} queries at {args.qps:g} QPS across "
        f"{args.isns} ISNs per policy..."
    )
    results = dict(zip(POLICIES, run_sweep(cells)))
    rows = [
        [
            policy,
            round(result.summary.p95_ms, 1),
            round(result.summary.p99_ms, 1),
            round(result.extras["isn_p99_ms"], 1),
            f"{100 * (result.responses_ms > 100.0).mean():.2f}%",
        ]
        for policy, result in results.items()
    ]

    print()
    print(
        format_table(
            ["policy", "agg P95", "agg P99", "ISN P99", ">100ms"],
            rows,
            title="Aggregator vs per-ISN latency (ms)",
        )
    )

    agg_p99 = results["TPC"].summary.p99_ms
    isn_pct = results["TPC"].extras["isn_pct_at_agg_p99"]
    print(
        f"\nTPC's aggregator P99 of {agg_p99:.1f} ms corresponds to the "
        f"P{isn_pct:.2f} of an individual ISN:\ntaming the cluster's P99 "
        "requires taming a much higher percentile at every server —\n"
        "which is exactly the regime where dynamic correction pays off."
    )


if __name__ == "__main__":
    main()
