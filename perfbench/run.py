#!/usr/bin/env python3
"""Run one benchmark workload of the TPC reproduction and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload isn_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` sets up the canonical workload twice (``setup_s`` is the
median), then repeats the workload's unit of work for about
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` sets up
once traced, runs one unit untraced and one traced, and reports the
per-layer metrics plus the tracing overhead; its spans are written to
``.perfbench/spans-<workload>-seed<seed>.json``.  ``--workload all``
runs every workload in its own process and prints each report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  METRICS.md
defines every metric.  Without ``src/repro`` beside this directory the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("isn_sweep", "cluster_hedged", "table_search")
#: Cold builds per run for setup_s.  Each takes ~10 s, so two already
#: take most of a ~35 s run.
SETUP_REPEATS = 2

#: End-to-end metrics: (name, unit, host or simulated).  Every workload
#: reports all of them; METRICS.md gives each workload's definition.
END_TO_END = (
    ("setup_s", "s", "host"),
    ("sim_requests_per_s", "req/s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("tpc_p50_ms", "ms", "simulated"),
    ("tpc_p99_ms", "ms", "simulated"),
    ("tail_objective_ms", "ms", "simulated"),
)

#: Simulated results printed in the report of the workload that has
#: them, but not part of the JSON line (they exist on one workload only).
REPORT_ONLY = (
    ("tpc_p999_ms", "ms"),
    ("tpc_p99_gain", "ratio"),
    ("tpc_capacity_qps", "QPS"),
    ("hedged_p99_ms", "ms"),
    ("alg1_tail_ms", "ms"),
    ("alg1_initial_ms", "ms"),
)

#: Per-layer metrics of the traced run: (name, unit).
PER_LAYER = (
    ("search.corpus_s", "s"),
    ("search.index_s", "s"),
    ("search.query_gen_s", "s"),
    ("search.execute_s", "s"),
    ("search.features_s", "s"),
    ("search.build_self_s", "s"),
    ("search.queries_executed", "count"),
    ("prediction.fit_s", "s"),
    ("prediction.predict_s", "s"),
    ("prediction.l1_ms", "ms"),
    ("sim.events", "count"),
    ("sim.run_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.compactions", "count"),
    ("sim.trace_sample_s", "s"),
    ("sim.schedule_s", "s"),
    ("sim.queue_wait_ms_p99", "ms"),
    ("sim.exec_ms_p99", "ms"),
    ("policies.initial_degree_calls", "count"),
    ("policies.on_check_calls", "count"),
    ("policies.decide_s", "s"),
    ("policies.corrected_fraction", "ratio"),
    ("policies.mean_degree", "threads"),
    ("exec.cells", "count"),
    ("exec.cell_self_s", "s"),
    ("exec.spec_hash_s", "s"),
    ("exec.pack_s", "s"),
    ("exec.cache_hits", "count"),
    ("exec.cache_misses", "count"),
    ("exec.cache_get_s", "s"),
    ("exec.cache_put_s", "s"),
    ("cluster.replicas", "count"),
    ("cluster.aggregate_s", "s"),
    ("cluster.isn_p99_ms", "ms"),
    ("cluster.agg_over_isn_p99", "ratio"),
    ("resilience.hedges_issued", "count"),
    ("resilience.hedge_wins", "count"),
    ("resilience.hedge_win_ratio", "ratio"),
    ("resilience.wasted_work_fraction", "ratio"),
    ("resilience.cancelled_replicas", "count"),
    ("core.iterations", "count"),
    ("core.measurements", "count"),
    ("core.measure_batch_s", "s"),
    ("search.self_s", "s"),
    ("prediction.self_s", "s"),
    ("sim.self_s", "s"),
    ("policies.self_s", "s"),
    ("exec.self_s", "s"),
    ("cluster.self_s", "s"),
    ("resilience.self_s", "s"),
    ("core.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.bench_s", "s"),
    ("trace.untraced_sim_requests_per_s", "req/s"),
    ("trace.traced_sim_requests_per_s", "req/s"),
    ("trace.overhead", "ratio"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload to seconds (self-tests only)",
    )
    return parser.parse_args(argv)


def isolate(scratch: Path) -> None:
    """Keep the run off the user's caches and on one thread per process.

    Must run before numpy is imported, so BLAS reads the thread caps.
    """
    for var in ("REPRO_BENCH_WORKERS", "REPRO_EXEC_CACHE"):
        os.environ.pop(var, None)
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "pool-cache")
    os.environ["REPRO_EXEC_CACHE_DIR"] = str(scratch / "exec-cache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_repro():
    """Import ``repro`` from this checkout's ``src``; None if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return None
    return repro


def _spin() -> int:
    total = 0
    for i in range(SpeedProbe.SPIN):
        total += i * i % 7
    return total


class SpeedProbe:
    """Times a fixed reference loop every 0.1 s while measured work runs.

    The hosts this runs on share cores with other tenants, and their
    speed drifts by more than 1.5x within seconds, for the work and for
    the probe alike.  ``seconds`` therefore reports the wall time of the
    work (probe time excluded) scaled by ``NOMINAL_S / mean probe
    time``: host seconds at the speed the probe takes ``NOMINAL_S``.
    ``wall_s`` keeps the raw figure.
    """

    PERIOD_S = 0.1
    SPIN = 15_000
    #: The probe's duration on an idle 2-vCPU Xeon VM, the reference host.
    NOMINAL_S = 0.00125

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.samples: list[float] = []
        self.wall_s = 0.0

    def _sample(self, signum, frame) -> None:
        context = self.tracer.frame("bench.probe") if self.tracer else _NULL
        with context:
            started = perf_counter()
            _spin()
            self.samples.append(perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._started = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = perf_counter() - self._started - sum(self.samples)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # work shorter than one period
            started = perf_counter()
            _spin()
            self.samples.append(perf_counter() - started)

    @property
    def seconds(self) -> float:
        return self.wall_s * self.NOMINAL_S / statistics.fmean(self.samples)


_NULL = contextlib.nullcontext()


def set_up(sizes, repeats: int, tracer=None):
    """Cold-build the workload ``repeats`` times.

    Returns the workload and the median build time, normalised and raw.
    """
    from repro.exec import pool

    probes = []
    workload = None
    for _ in range(repeats):
        workload = None
        pool.forget_workload(sizes.workload)
        gc.collect()
        with SpeedProbe(tracer) as probe:
            workload = pool.memoised_workload(sizes.workload)
        probes.append(probe)
    return (
        workload,
        statistics.median(p.seconds for p in probes),
        statistics.median(p.wall_s for p in probes),
    )


def run_unit(fn, ctx):
    """One unit of work under a speed probe; an exception fails one operation."""
    from workloads import UnitResult

    with SpeedProbe(ctx.tracer) as probe:
        try:
            unit = fn(ctx)
        except Exception:
            traceback.print_exc()
            unit = UnitResult()
            unit.operation(1, ["unit raised; traceback on stderr"])
    return unit, probe


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(fn, ctx, seconds: float):
    """Set up, then repeat units for about ``seconds``.

    Returns the end-to-end metrics, the raw wall-clock figures behind the
    normalised host metrics, and the units.
    """
    ctx.workload, setup_s, setup_wall_s = set_up(ctx.sizes, SETUP_REPEATS)
    units, probes = [], []
    while True:
        unit, probe = run_unit(fn, ctx)
        units.append(unit)
        probes.append(probe)
        spent = sum(p.wall_s for p in probes)
        if spent + spent / len(units) > seconds:
            break
    first = units[0]
    for i, unit in enumerate(units[1:], start=1):
        if unit.simulated != first.simulated:
            unit.failed = unit.attempted
            unit.problems.append(f"unit {i} simulated different results than unit 0")
    requests = sum(u.sim_requests for u in units)
    metrics = {
        "setup_s": setup_s,
        "sim_requests_per_s": requests / sum(p.seconds for p in probes),
        "peak_rss_mb": peak_rss_mb(),
    }
    for name, _, kind in END_TO_END:
        if kind == "simulated":
            metrics[name] = first.simulated.get(name, 0.0)
    raw = {
        "setup_wall_s": (setup_wall_s, "s"),
        "sim_requests_per_wall_s": (requests / spent, "req/s"),
        "units": (len(units), "count"),
    }
    return metrics, raw, units


def trace_run(fn, ctx):
    """Traced set-up and unit, plus an untraced unit; per-layer metrics."""
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    tracer.enable()
    workload, _, _ = set_up(ctx.sizes, 1, tracer)
    tracer.disable()
    ctx.workload = workload
    untraced, untraced_probe = run_unit(fn, ctx)
    ctx.tracer = tracer
    tracer.enable()
    traced, traced_probe = run_unit(fn, ctx)
    tracer.disable()
    if traced.simulated != untraced.simulated:
        traced.failed = traced.attempted
        traced.problems.append("tracing changed the simulated results")

    total, own, calls = tracer.total_s, tracer.self_by_name, tracer.calls
    layer_self = tracer.layer_self_s()
    events = tracer.events
    untraced_rps = untraced.sim_requests / untraced_probe.seconds
    traced_rps = traced.sim_requests / traced_probe.seconds
    metrics = {
        "search.corpus_s": total["search.corpus"],
        "search.index_s": total["search.index"],
        "search.query_gen_s": total["search.query_gen"],
        "search.execute_s": total["search.execute"],
        "search.features_s": total["search.features"],
        "search.build_self_s": own["search.build"],
        "search.queries_executed": calls["search.execute"],
        "prediction.fit_s": total["prediction.fit"],
        "prediction.predict_s": total["prediction.predict"],
        "prediction.l1_ms": workload.predictor_report.l1_error_ms,
        "sim.events": events,
        "sim.run_s": own["sim.run"],
        "sim.ns_per_event": own["sim.run"] / events * 1e9 if events else 0.0,
        "sim.compactions": tracer.compactions,
        "sim.trace_sample_s": total["sim.trace_sample"],
        "sim.schedule_s": total["sim.schedule"],
        "policies.initial_degree_calls": calls["policies.initial_degree"],
        "policies.on_check_calls": calls["policies.on_check"],
        "policies.decide_s": total["policies.initial_degree"] + total["policies.on_check"],
        "exec.cells": calls["exec.cell"],
        "exec.cell_self_s": own["exec.cell"],
        "exec.spec_hash_s": total["exec.spec_hash"],
        "exec.pack_s": total["exec.pack"],
        "exec.cache_get_s": total["exec.cache_get"],
        "exec.cache_put_s": total["exec.cache_put"],
        "cluster.replicas": calls["cluster.aggregate"],
        "cluster.aggregate_s": total["cluster.aggregate"] + total["cluster.begin"],
        "core.measure_batch_s": total["core.measure_batch"],
        "trace.wall_s": tracer.work_wall_s(),
        "trace.coverage": tracer.coverage(),
        "trace.bench_s": tracer.work_wall_s() - sum(layer_self.values()),
        "trace.untraced_sim_requests_per_s": untraced_rps,
        "trace.traced_sim_requests_per_s": traced_rps,
        "trace.overhead": 1.0 - traced_rps / untraced_rps,
    }
    metrics.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    for name, _ in PER_LAYER:
        if name not in metrics:
            metrics[name] = traced.simulated.get(name, 0.0)
    return metrics, [untraced, traced], tracer


def report(args, metrics, raw, units, declared) -> dict:
    """Print the human-readable report; return the JSON result line."""
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.problems]
    print(f"== {args.workload}  seed={args.seed}  trace={args.trace}  size={args.size}")
    print(
        "open loop: Poisson arrivals at a fixed QPS; every request is timed from "
        "its scheduled simulated arrival, so generator lateness is 0 by construction"
    )
    for name, unit in declared:
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    if args.trace == 0:
        extras = units[0].simulated
        for name, unit in REPORT_ONLY:
            if name in extras:
                print(f"  {name:34s} {extras[name]:>16.6g} {unit}")
        fraction = failed / attempted if attempted else 1.0
        print(f"  {'failed_fraction':34s} {fraction:>16.6g} ratio ({failed}/{attempted})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in declared
        },
    }


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            ok = done.returncode == 0 and json.loads(lines[-1])["correct"]
        except (IndexError, ValueError, KeyError):
            ok = False
        print(f"  -> {'correct' if ok else 'FAILED'}\n")
        status = status or (0 if ok else 1)
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    isolate(scratch)
    if import_repro() is None:
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
        fn = workloads.WORKLOADS[args.workload]
        ctx = workloads.Context(sizes, None, args.seed % 2**31, scratch)
        if args.trace:
            metrics, units, tracer = trace_run(fn, ctx)
            out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
            out.write_text(json.dumps(tracer.dump()))
            raw = {}
            declared = PER_LAYER
        else:
            metrics, raw, units = measure(fn, ctx, args.seconds)
            declared = tuple((name, unit) for name, unit, _ in END_TO_END)
        result = report(args, metrics, raw, units, declared)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
