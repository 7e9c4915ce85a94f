#!/usr/bin/env python3
"""One straggling ISN, with and without request hedging.

A partition-aggregate cluster waits for its slowest shard, so a single
slow node — a compacting, throttled or overloaded ISN — sets the
user-visible tail for *every* query.  This example injects one 4x
straggler into a TPC cluster and compares three aggregator policies:

1. wait-for-all (the paper's Figure 8 aggregator): the straggler's
   tail becomes the cluster's tail;
2. hedged re-issue: shards still missing after a timeout are re-sent
   to the least-loaded healthy ISN, first answer wins, the loser is
   cancelled (tied requests);
3. wait-for-k: answer from k = n-1 shards, tolerate one late node.

Each aggregation is one cluster cell; the three run in one sweep (in
parallel under ``REPRO_BENCH_WORKERS``, cached under
``REPRO_EXEC_CACHE=1``).

Run:  python examples/cluster_resilience.py  [--isns 8] [--queries 2000]
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
from repro.resilience import FaultSpec, HedgePolicy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--isns", type=int, default=8,
                        help="number of index-serving nodes")
    parser.add_argument("--queries", type=int, default=2_000,
                        help="logical queries to replay")
    parser.add_argument("--qps", type=float, default=300.0,
                        help="offered load in queries per second")
    parser.add_argument("--slowdown", type=float, default=4.0,
                        help="demand multiplier of the straggling ISN")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="hedge timeout in milliseconds")
    args = parser.parse_args()

    horizon_ms = 1000.0 * args.queries / args.qps
    fault = FaultSpec.straggler(
        0, args.slowdown, t0_ms=0.0, t1_ms=horizon_ms * 4.0
    )

    variants = [
        ("wait-for-all", HedgePolicy.wait_for_all()),
        (f"hedge @{args.timeout:g}ms", HedgePolicy.hedged(args.timeout)),
        (f"wait-for-{args.isns - 1}", HedgePolicy.partial(args.isns - 1)),
    ]
    cells = [
        CellSpec.for_experiment(
            default_workload_spec(),
            "TPC",
            args.qps,
            args.queries,
            seed=3,
            target_table=default_target_table(),
            cluster_config=ClusterConfig(num_isns=args.isns),
            fault_spec=fault,
            hedge_policy=hedge,
        )
        for _, hedge in variants
    ]

    print(
        f"Replaying {args.queries} queries at {args.qps:g} QPS across "
        f"{args.isns} ISNs under TPC;\nISN 0 runs {args.slowdown:g}x slow "
        "for the whole run."
    )
    rows = []
    p999 = {}
    for (label, _), result in zip(variants, run_sweep(cells)):
        p999[label] = result.summary.p999_ms
        rows.append(
            [
                label,
                round(result.summary.p50_ms, 1),
                round(result.summary.p99_ms, 1),
                round(result.summary.p999_ms, 1),
                f"{100 * result.extras['hedge_rate']:.1f}%",
                f"{100 * result.extras['wasted_work_fraction']:.1f}%",
            ]
        )

    print()
    print(
        format_table(
            ["aggregation", "P50", "P99", "P99.9", "hedged", "wasted"],
            rows,
            title="Aggregator latency under one straggler (ms)",
        )
    )

    base_label = variants[0][0]
    hedge_label = variants[1][0]
    delta = 1.0 - p999[hedge_label] / p999[base_label]
    print(
        f"\nHedging cuts the aggregator P99.9 from "
        f"{p999[base_label]:.1f} ms to {p999[hedge_label]:.1f} ms "
        f"({100 * delta:.1f}% better): the timeout re-issues exactly the "
        "shards stuck behind the\nstraggler, and tied-request "
        "cancellation keeps the extra work bounded."
    )


if __name__ == "__main__":
    main()
