"""``python -m repro.gate`` — run the fidelity & determinism gate.

Exit status: 0 when every check passes, 1 on any band violation, 2 on
usage errors or a check that crashed.  The JSON artifact is written
regardless of the verdict so CI can upload it from failing runs.

The timed ``perf`` check (scenario throughput) runs only when named:
``python -m repro.gate --only perf``.  Profile it with ``python -m
cProfile -m repro.gate --only perf``.

The cell result cache is *on* by default here (``--cache-dir``, else
the cache directory ``REPRO_CACHE_DIR``), unlike the library and the
benchmarks, because a warm gate must be near-free; ``--no-cache``
forces a cold run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ..artifacts import git_sha
from ..errors import ConfigError, ReproError
from ..exec.cache import ResultCache
from ..exec.pool import log_progress
from .baselines import (
    default_baselines_path,
    load_baselines,
    merge_baselines,
    save_baselines,
)
from .checks import CHECKS, scale_for_mode
from .runner import baseline_metrics, run_gate

__all__ = ["main"]


def _parse_perturb(entries: Sequence[str]) -> dict[str, float]:
    perturb: dict[str, float] = {}
    for entry in entries:
        metric, sep, factor = entry.partition("=")
        if not sep or not metric:
            raise ConfigError(
                f"--perturb expects METRIC=FACTOR, got {entry!r}"
            )
        try:
            perturb[metric] = float(factor)
        except ValueError:
            raise ConfigError(
                f"--perturb factor must be a number, got {factor!r}"
            ) from None
    return perturb


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gate",
        description=(
            "Machine-checked fidelity & determinism gate: re-derives the "
            "paper's headline metrics from deterministic simulations and "
            "judges them against tolerance bands."
        ),
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--fast",
        dest="mode",
        action="store_const",
        const="fast",
        help="CI sizing: small deterministic samples (default)",
    )
    mode.add_argument(
        "--full",
        dest="mode",
        action="store_const",
        const="full",
        help="paper-scale samples (slower, tighter statistics)",
    )
    parser.set_defaults(mode="fast")
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="CHECK",
        help="run only the named check (repeatable, comma-separable); "
        "the timed perf check runs only when named",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered checks and exit",
    )
    parser.add_argument(
        "--output",
        default="BENCH_gate.json",
        metavar="PATH",
        help="where to write the JSON report (default BENCH_gate.json)",
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
        "--baselines",
        default=None,
        metavar="PATH",
        help=(
            "baseline JSON for relative bands "
            f"(default {default_baselines_path()})"
        ),
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="run the checks, then store their measured values as the "
        "new baselines for this mode",
    )
    parser.add_argument(
        "--perturb",
        action="append",
        default=[],
        metavar="METRIC=FACTOR",
        help="multiply a measured metric before judgement (gate self-test)",
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
        scale = scale_for_mode(args.mode)
        print(f"registered gate checks (mode={args.mode}):")
        for check in CHECKS.values():
            n_cells = len(check.cells(scale))
            timed = "; timed, runs only with --only" if check.timed else ""
            print(
                f"  {check.name:<22} {check.description} "
                f"[{check.paper_ref}; {n_cells} cells{timed}]"
            )
        return 0

    only = None
    if args.only:
        only = [
            name.strip()
            for entry in args.only
            for name in entry.split(",")
            if name.strip()
        ]

    cache = None if args.no_cache else ResultCache(args.cache_dir)

    try:
        perturb = _parse_perturb(args.perturb)
        if perturb and args.update_baselines:
            raise ConfigError(
                "--perturb cannot be combined with --update-baselines: "
                "the perturbed values would be stored as baselines"
            )
        report = run_gate(
            mode=args.mode,
            only=only,
            workers=args.workers,
            cache=cache,
            baselines_path=args.baselines,
            perturb=perturb or None,
            progress=None if args.quiet else log_progress,
        )
    except ReproError as exc:
        print(f"gate error: {exc}", file=sys.stderr)
        return 2

    path = report.write(args.output)
    print(report.render_summary())
    print(f"\nreport written to {path}")

    if args.update_baselines:
        metrics = baseline_metrics(report)
        document = load_baselines(args.baselines)
        target = save_baselines(
            merge_baselines(document, args.mode, metrics, git_sha()),
            args.baselines,
        )
        print(f"baselines for mode={args.mode} updated at {target}")

    if report.status == "pass":
        return 0
    return 2 if report.status == "error" else 1


if __name__ == "__main__":
    sys.exit(main())
