"""``python -m repro.obs`` — run one observed experiment cell.

Runs a single-server cell (TPC over a tiny search workload by
default) with the observability layer attached, prints the metric
snapshot, the tail-attribution report and the slowest request
timelines, and writes a Chrome trace-event JSON you can load at
``chrome://tracing`` or https://ui.perfetto.dev.

Exit status: 0 on success, 2 on usage errors or a failed run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ..errors import ReproError
from ..exec.spec import CellSpec
from ..experiments.scenarios import TINY_TARGET_TABLE, TINY_WORKLOAD_SPEC
from .attribution import render_tail_report
from .export import render_timelines, write_chrome_trace
from .observe import observe_cell
from .spans import slowest_spans

__all__ = ["main"]

_TABLE_POLICIES = ("TP", "TPC")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=(
            "Observe one experiment cell: request spans, metrics, "
            "policy-decision attribution, and a Chrome trace export."
        ),
    )
    parser.add_argument(
        "--policy",
        default="TPC",
        metavar="NAME",
        help="policy to observe (default TPC)",
    )
    parser.add_argument(
        "--qps", type=float, default=300.0, help="offered load (default 300)"
    )
    parser.add_argument(
        "--n-requests",
        type=int,
        default=None,
        metavar="N",
        help="requests to simulate (default 4000; 800 with --fast)",
    )
    parser.add_argument(
        "--seed", type=int, default=93, help="experiment seed (default 93)"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI sizing: fewer requests",
    )
    parser.add_argument(
        "--slowest",
        type=int,
        default=3,
        metavar="N",
        help="how many slowest request timelines to render (default 3)",
    )
    parser.add_argument(
        "--output",
        default="trace_obs.json",
        metavar="PATH",
        help="Chrome trace-event JSON path (default trace_obs.json)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="only write the trace file; no report on stdout",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    n_requests = (
        args.n_requests
        if args.n_requests is not None
        else (800 if args.fast else 4_000)
    )

    table = TINY_TARGET_TABLE if args.policy in _TABLE_POLICIES else None
    try:
        spec = CellSpec.for_experiment(
            TINY_WORKLOAD_SPEC,
            args.policy,
            args.qps,
            n_requests=n_requests,
            seed=args.seed,
            target_table=table,
        )
        cell, obs = observe_cell(spec)
    except ReproError as exc:
        print(f"obs error: {exc}", file=sys.stderr)
        return 2

    doc = obs.chrome_trace(
        process_name=f"{cell.policy_name} @ {args.qps:g} qps"
    )
    with open(args.output, "w", encoding="utf-8") as fp:
        write_chrome_trace(fp, doc)

    if not args.quiet:
        print(
            f"{cell.policy_name} @ {args.qps:g} qps, "
            f"{n_requests} requests (seed {args.seed}): "
            f"p99={cell.summary.p99_ms:.1f} ms "
            f"p99.9={cell.summary.p999_ms:.1f} ms"
        )
        print()
        print("metrics:")
        for name, value in sorted(obs.metrics().items()):
            print(f"  {name:<28} {value:12.3f}")
        print()
        print(render_tail_report(obs.tail_report()))
        spans = slowest_spans(obs.spans(), args.slowest)
        if spans:
            print()
            print(f"slowest {len(spans)} requests:")
            print()
            print(render_timelines(spans))
        print()
    print(f"chrome trace written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
