"""``python -m repro.resilience`` — run named fault scenarios.

Compares Sequential / Pred / TPC under a fault campaign with and
without aggregator mitigations (wait-for-k, hedging) and writes a
``BENCH_resilience.json`` artifact with the common report header.

Exit status: 0 on success, 2 on usage errors or a failed run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ..artifacts import write_json
from ..errors import ReproError
from ..exec.cache import ENV_CACHE, ResultCache
from ..exec.pool import log_progress
from .report import build_report, render_summary
from .scenarios import SCENARIOS, list_scenarios, run_scenario, sizing

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description=(
            "Fault-injection scenarios for the cluster layer: compare the "
            "paper's policies under stragglers, degraded nodes and "
            "blackouts, with and without hedging / partial-wait "
            "aggregation."
        ),
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario to run (repeatable; default: all shipped scenarios)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI sizing: fewer queries and ISNs per scenario",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list shipped scenarios and exit",
    )
    parser.add_argument(
        "--output",
        default="BENCH_resilience.json",
        metavar="PATH",
        help="where to write the JSON report (default BENCH_resilience.json)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool width (default REPRO_BENCH_WORKERS / cpu count)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the exec result cache (guaranteed-cold run)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory of the cell result cache (default REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-cell progress lines",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        print("shipped resilience scenarios:")
        n_fast, isns_fast = sizing(True)
        n_full, isns_full = sizing(False)
        for scenario in list_scenarios():
            print(
                f"  {scenario.name:<20} {scenario.description} "
                f"[{isns_full} ISNs x {n_full} queries; "
                f"fast: {isns_fast} x {n_fast}]"
            )
        return 0

    names = args.scenario if args.scenario else list(SCENARIOS)
    if args.no_cache:
        cache = None
    elif args.cache_dir is not None:
        cache = ResultCache(args.cache_dir)
    else:
        cache = ENV_CACHE

    try:
        results = [
            run_scenario(
                name,
                fast=args.fast,
                workers=args.workers,
                cache=cache,
                progress=None if args.quiet else log_progress,
            )
            for name in names
        ]
    except ReproError as exc:
        print(f"resilience error: {exc}", file=sys.stderr)
        return 2

    report = build_report(results)
    path = write_json(report, args.output)
    print(render_summary(results))
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
