"""``python -m repro.perf`` — run the hot-path benchmark harness.

Runs the registered scenarios (best-of-``--repeats`` each), judges
each scenario's throughput against its baseline in the shared baseline
store (``benchmarks/baselines/gate_baseline.json``; see
:mod:`repro.perf.report`), writes ``BENCH_perf.json`` and exits 1 when
any throughput falls below its floor.

Examples::

    python -m repro.perf --fast
    python -m repro.perf --only server_under_load --repeats 5
    python -m repro.perf --fast --update-baselines
    python -m repro.perf --only engine_only --profile prof.out
"""

from __future__ import annotations

import argparse
import sys

from ..artifacts import git_sha, write_json
from ..gate.bands import evaluate_measurement
from ..gate.baselines import (
    default_baselines_path,
    load_baselines,
    merge_baselines,
    save_baselines,
)
from .report import build_report, throughput_measurements
from .runner import run_scenario
from .scenarios import SCENARIOS, scenario

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Benchmark the simulation hot path.",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="small scenario sizes (CI smoke); default is full sizes",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help=f"run only this scenario (repeatable); known: {sorted(SCENARIOS)}",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per scenario"
    )
    parser.add_argument(
        "--output",
        default="BENCH_perf.json",
        help="report path (default: BENCH_perf.json)",
    )
    parser.add_argument(
        "--baselines",
        default=None,
        metavar="PATH",
        help=f"baseline JSON (default {default_baselines_path()})",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="store this run's throughputs as the baselines for this mode "
        "instead of gating",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="also run each scenario once under cProfile; stats are "
        "dumped to PATH (single scenario) or PATH.<name> (several)",
    )
    args = parser.parse_args(argv)

    names = args.only if args.only else sorted(SCENARIOS)
    specs = [scenario(n) for n in names]

    runs = []
    for spec in specs:
        size = spec.size_for(args.fast)
        profile_path = None
        if args.profile:
            profile_path = (
                args.profile
                if len(specs) == 1
                else f"{args.profile}.{spec.name}"
            )
        print(
            f"[perf] {spec.name} (size={size}, repeats={args.repeats}) ...",
            flush=True,
        )
        run = run_scenario(
            spec, size, repeats=args.repeats, profile_path=profile_path
        )
        key = spec.throughput_key
        print(
            f"[perf]   {key}={run.metrics[key]:,.0f} "
            f"wall={run.metrics['wall_time_s']:.3f}s "
            f"peak_rss={run.peak_rss_kb / 1024.0:.0f} MiB"
        )
        runs.append(run)

    mode = "fast" if args.fast else "full"
    measurements = throughput_measurements(runs)
    baselines = load_baselines(args.baselines, mode=mode)
    evaluated = [evaluate_measurement(m, baselines) for m in measurements]
    write_json(build_report(runs, args.fast, evaluated), args.output)
    print(f"[perf] wrote {args.output}")

    if args.update_baselines:
        document = merge_baselines(
            load_baselines(args.baselines),
            mode,
            {m.metric: m.value for m in measurements},
            git_sha(),
        )
        target = save_baselines(document, args.baselines)
        print(f"[perf] baselines for mode={mode} updated at {target}")
        return 0

    failures = [m for m in evaluated if not m.passed]
    for m in failures:
        print(f"[perf] REGRESSION {m.describe()}", file=sys.stderr)
    if failures:
        return 1
    print("[perf] no regressions against baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
