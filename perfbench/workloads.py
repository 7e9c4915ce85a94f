"""The benchmark's three workloads, their correctness checks and metrics.

Each workload is one *unit* of fixed work over the canonical search
workload, driven inline from one process (``workers=1``).  Every cell is
an open loop: Poisson arrivals at a fixed QPS, each request timed from
its scheduled simulated arrival.  A unit returns the simulated requests
it completed (for ``sim_requests_per_s``), the simulated metrics it
measured (identical for a fixed seed), and its attempted / failed
operation counts.  Why each workload exists is written in METRICS.md.
"""

from __future__ import annotations

import hashlib
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster import cluster as cluster_mod
from repro.config import (
    ClusterConfig,
    PredictorConfig,
    SearchWorkloadConfig,
    TargetTableConfig,
)
from repro.core.target_table import TargetTable
from repro.exec import pool
from repro.exec.cache import ResultCache
from repro.exec.spec import CellSpec, SweepSpec, WorkloadSpec
from repro.experiments import runner
from repro.experiments.scenarios import DEFAULT_SEARCH_TARGET_TABLE
from repro.resilience.faults import FaultSpec
from repro.resilience.hedging import HedgePolicy

#: Seed of the canonical workload recipe; the run's --seed drives cells.
WORKLOAD_SEED = 2016
#: The Fig 4 latency level the capacity search holds TPC's P99 to.
CAPACITY_P99_LIMIT_MS = 100.0
#: A load has a growing backlog when its last decile of requests waits
#: more than this factor times its first decile (floored at 1 ms).
BACKLOG_FACTOR = 4.0
BACKLOG_FLOOR_MS = 1.0
SWEEP_POLICIES = ("Sequential", "AP", "Pred", "TPC")
SWEEP_LOADS = (150.0, 450.0, 750.0)
#: Load of the single-ISN and cluster headline cells.
HEADLINE_QPS = 450.0
CAPACITY_STEP_QPS = 10.0


@dataclass(frozen=True)
class Sizes:
    """How much work one unit of each workload does."""

    workload: WorkloadSpec
    sweep_requests: int
    cluster_isns: int
    #: Queries of the healthy and of the hedged straggler cell.
    cluster_queries: tuple[int, int]
    table_requests: int
    table_iterations: int


FULL = Sizes(
    workload=WorkloadSpec.search(seed=WORKLOAD_SEED, use_workload_cache=False),
    sweep_requests=20_000,
    cluster_isns=40,
    cluster_queries=(6_000, 3_000),
    table_requests=4_000,
    table_iterations=3,
)

#: A few-second configuration for the benchmark's self-tests.
TINY = Sizes(
    workload=WorkloadSpec.search(
        seed=11,
        config=SearchWorkloadConfig(
            num_documents=3_000,
            vocabulary_size=1_500,
            mean_doc_length=120,
            hard_term_pool=150,
            easy_skip_top=15,
        ),
        predictor_config=PredictorConfig(num_trees=60, max_depth=4),
        pool_size=1_200,
        use_workload_cache=False,
    ),
    sweep_requests=1_500,
    cluster_isns=8,
    cluster_queries=(300, 300),
    table_requests=500,
    table_iterations=1,
)

@dataclass
class Context:
    """What a unit needs: the built workload, seed, sizes, scratch dir."""

    sizes: Sizes
    workload: object
    seed: int
    scratch: Path
    tracer: object | None = None

    def checking(self):
        """Frame the benchmark's own checks when tracing."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.frame("bench.check")


@dataclass
class UnitResult:
    """Outcome of one unit of a workload."""

    sim_requests: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Simulated metrics: end-to-end, report-only and per-layer ones.
    simulated: dict[str, float] = field(default_factory=dict)

    def operation(self, count: int, problems: list[str], completed: int | None = None) -> None:
        """Account ``count`` attempted operations; all fail on a problem."""
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(problems)
        elif completed is not None:
            self.failed += count - completed


def _request_problems(label: str, n: int, responses, queueing, executions) -> list[str]:
    """Every request completed, finitely, with response = queue + exec."""
    problems = []
    responses = np.asarray(responses, dtype=np.float64)
    if responses.size != n:
        problems.append(f"{label}: {responses.size}/{n} requests completed")
    if not np.isfinite(responses).all():
        problems.append(f"{label}: non-finite latency")
    queueing = np.asarray(queueing, dtype=np.float64)
    executions = np.asarray(executions, dtype=np.float64)
    if queueing.shape != responses.shape or executions.shape != responses.shape:
        problems.append(f"{label}: queueing/execution arrays misaligned")
    elif not np.allclose(responses, queueing + executions, rtol=1e-9, atol=1e-6):
        problems.append(f"{label}: response != queueing + execution")
    return problems


def _p(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _growing_backlog(queueing_ms: np.ndarray) -> bool:
    decile = max(1, queueing_ms.size // 10)
    first = float(queueing_ms[:decile].mean())
    last = float(queueing_ms[-decile:].mean())
    return last > BACKLOG_FACTOR * max(first, BACKLOG_FLOOR_MS)


def _cell_layer_metrics(queueing, executions, corrected, max_degrees) -> dict[str, float]:
    return {
        "sim.queue_wait_ms_p99": _p(queueing, 99),
        "sim.exec_ms_p99": _p(executions, 99),
        "policies.corrected_fraction": float(np.mean(np.asarray(corrected, dtype=bool))),
        "policies.mean_degree": float(np.mean(np.asarray(max_degrees, dtype=np.float64))),
    }


# -- isn_sweep ------------------------------------------------------------


def isn_sweep(ctx: Context) -> UnitResult:
    """Sequential/AP/Pred/TPC x three loads, then TPC's capacity search."""
    s = ctx.sizes
    n = s.sweep_requests
    out = UnitResult()
    sweep = SweepSpec.grid(
        s.workload, SWEEP_POLICIES, SWEEP_LOADS, n, ctx.seed,
        target_table=DEFAULT_SEARCH_TARGET_TABLE,
    )
    results = pool.run_sweep(sweep, workers=1)
    cells = {(r.policy_name, r.qps): r for r in results}
    out.sim_requests += sum(r.responses_ms.size for r in results)

    def check(label: str, result) -> list[str]:
        return _request_problems(
            label, n, result.responses_ms, result.queueing_ms, result.executions_ms
        )

    with ctx.checking():
        for (policy, qps), result in cells.items():
            problems = check(f"{policy}@{qps:g}", result)
            if policy == "TPC" and not problems:
                seq = cells[("Sequential", qps)].summary.p99_ms
                if result.summary.p99_ms > seq:
                    problems.append(
                        f"TPC P99 {result.summary.p99_ms:.3f} > Sequential {seq:.3f} @ {qps:g}"
                    )
            out.operation(n, problems, completed=result.responses_ms.size)

    # Capacity: bisect TPC-only cells on a CAPACITY_STEP_QPS grid between the
    # last sweep load that meets the limit and the first that does not.
    def meets_limit(result) -> bool:
        return (
            result.summary.p99_ms <= CAPACITY_P99_LIMIT_MS
            and not _growing_backlog(result.queueing_ms)
        )

    tpc = [cells[("TPC", q)] for q in SWEEP_LOADS]
    meets = [meets_limit(r) for r in tpc]
    step = CAPACITY_STEP_QPS
    capacity = 0.0
    if not meets[0]:
        out.operation(n, [f"TPC misses {CAPACITY_P99_LIMIT_MS:g} ms at {SWEEP_LOADS[0]:g} QPS"])
    else:
        first_miss = meets.index(False) if False in meets else len(meets)
        lo = SWEEP_LOADS[first_miss - 1]
        hi = SWEEP_LOADS[first_miss] if first_miss < len(meets) else 2 * lo
        while hi - lo > step:
            mid = lo + step * max(1, round((hi - lo) / step) // 2)
            cell = CellSpec.for_experiment(
                s.workload, "TPC", mid, n, ctx.seed,
                target_table=DEFAULT_SEARCH_TARGET_TABLE,
            )
            result = pool.run_sweep([cell], workers=1)[0]
            out.sim_requests += result.responses_ms.size
            with ctx.checking():
                ok = meets_limit(result)
                out.operation(n, check(f"TPC@{mid:g}", result), completed=result.responses_ms.size)
            if ok:
                lo = mid
            else:
                hi = mid
        capacity = lo

    head = cells[("TPC", HEADLINE_QPS)]
    baseline = min(
        cells[("AP", HEADLINE_QPS)].summary.p99_ms,
        cells[("Pred", HEADLINE_QPS)].summary.p99_ms,
    )
    out.simulated.update(
        {
            "tpc_p50_ms": head.summary.p50_ms,
            "tpc_p99_ms": head.summary.p99_ms,
            "tail_objective_ms": sum(r.summary.p99_ms for r in tpc),
            "tpc_p999_ms": head.summary.p999_ms,
            "tpc_p99_gain": 1.0 - head.summary.p99_ms / baseline,
            "tpc_capacity_qps": capacity,
        }
    )
    out.simulated.update(
        _cell_layer_metrics(
            head.queueing_ms, head.executions_ms, head.corrected, head.max_degrees
        )
    )
    return out


# -- cluster_hedged -------------------------------------------------------


def _cluster_problems(label: str, result, n: int) -> list[str]:
    """Completion, per-ISN accounting, and aggregator >= slowest replica."""
    agg = np.asarray(result.aggregator_latencies_ms, dtype=np.float64)
    isn = np.asarray(result.isn_latencies_ms, dtype=np.float64)
    problems = []
    if agg.size != n or not np.isfinite(agg).all():
        problems.append(f"{label}: {agg.size}/{n} queries aggregated with finite latency")
    elif isn.size != n * result.num_isns:
        problems.append(f"{label}: {isn.size} replica answers for {n} queries")
    elif (agg < isn.reshape(n, result.num_isns).max(axis=1)).any():
        problems.append(f"{label}: aggregator answered before its slowest replica")
    for i, rec in enumerate(result.isn_recorders):
        problems.extend(
            _request_problems(
                f"{label}/isn{i}", len(rec.responses_ms),
                rec.responses_ms, rec.queueing_ms, rec.executions_ms,
            )
        )
    return problems


def cluster_hedged(ctx: Context) -> UnitResult:
    """40 ISNs: healthy wait-for-all, then one 4x straggler with hedging."""
    s = ctx.sizes
    out = UnitResult()
    config = ClusterConfig(num_isns=s.cluster_isns)
    runs = {}
    for label, n, faults, hedge in (
        ("healthy", s.cluster_queries[0], None, None),
        ("hedged", s.cluster_queries[1], FaultSpec.straggler(0, 4.0), HedgePolicy.hedged(60.0)),
    ):
        result = cluster_mod.run_cluster_experiment(
            ctx.workload, "TPC", HEADLINE_QPS, n, ctx.seed,
            cluster_config=config,
            target_table=DEFAULT_SEARCH_TARGET_TABLE,
            workers=1,
            fault_spec=faults,
            hedge_policy=hedge,
        )
        runs[label] = result
        out.sim_requests += sum(len(r.responses_ms) for r in result.isn_recorders)
        with ctx.checking():
            problems = _cluster_problems(label, result, n)
            stats = getattr(result, "resilience", None)
            if hedge is not None and (stats is None or stats.hedge_wins > stats.hedges_issued):
                problems.append(f"{label}: hedge accounting missing or wins > issued")
            out.operation(n, problems, completed=len(result.aggregator_latencies_ms))

    healthy, hedged = runs["healthy"], runs["hedged"]
    stats = hedged.resilience
    recs = healthy.isn_recorders
    pooled = {
        key: np.concatenate([np.asarray(getattr(r, key)) for r in recs])
        for key in ("queueing_ms", "executions_ms", "corrected", "max_degrees")
    }
    isn_p99 = healthy.isn_percentile(99)
    agg_p99 = healthy.aggregator_percentile(99)
    work = stats.wasted_work_ms + stats.useful_work_ms
    out.simulated.update(
        {
            "tpc_p50_ms": healthy.aggregator_percentile(50),
            "tpc_p99_ms": agg_p99,
            "tail_objective_ms": hedged.aggregator_percentile(99),
            "hedged_p99_ms": hedged.aggregator_percentile(99),
            "cluster.isn_p99_ms": isn_p99,
            "cluster.agg_over_isn_p99": agg_p99 / isn_p99,
            "resilience.hedges_issued": float(stats.hedges_issued),
            "resilience.hedge_wins": float(stats.hedge_wins),
            "resilience.hedge_win_ratio": (
                stats.hedge_wins / stats.hedges_issued if stats.hedges_issued else 0.0
            ),
            "resilience.wasted_work_fraction": (
                stats.wasted_work_ms / work if work > 0 else 0.0
            ),
            "resilience.cancelled_replicas": float(stats.cancelled_replicas),
        }
    )
    out.simulated.update(
        _cell_layer_metrics(
            pooled["queueing_ms"], pooled["executions_ms"],
            pooled["corrected"], pooled["max_degrees"],
        )
    )
    return out


# -- table_search ---------------------------------------------------------


def _digest(result) -> str:
    """Content hash of a CellResult (host wall time excluded)."""
    h = hashlib.sha256()
    h.update(repr((result.spec_hash, result.policy_name, result.qps, result.summary)).encode())
    for name in (
        "responses_ms", "queueing_ms", "executions_ms", "demands_ms",
        "predictions_ms", "initial_degrees", "max_degrees", "corrected",
    ):
        h.update(np.ascontiguousarray(getattr(result, name)).tobytes())
    h.update(repr(sorted(result.extras.items())).encode())
    return h.hexdigest()


class _CheckedCache(ResultCache):
    """A private result cache that checks what passes through it.

    Cold writes are checked like any cell and digested; replay reads
    must hit and return results with the digest of the original write.
    """

    def __init__(self, directory: Path, ctx: Context, n: int) -> None:
        super().__init__(directory)
        self.ctx = ctx
        self.n = n
        self.phase = "cold"
        self.written: dict[str, str] = {}
        self.problems: list[str] = []

    def put(self, spec, result):
        path = super().put(spec, result)
        with self.ctx.checking():
            label = f"TPC@{spec.qps:g}#{result.spec_hash[:8]}"
            self.problems.extend(
                _request_problems(
                    label, self.n, result.responses_ms,
                    result.queueing_ms, result.executions_ms,
                )
            )
            if self.phase != "cold":
                self.problems.append(f"{label}: written during {self.phase}")
            self.written[result.spec_hash] = _digest(result)
        return path

    def get(self, spec):
        hit = super().get(spec)
        if self.phase == "replay":
            with self.ctx.checking():
                if hit is None:
                    self.problems.append("replay missed the cache")
                elif self.written.get(hit.spec_hash) != _digest(hit):
                    self.problems.append(f"replay of {hit.spec_hash[:8]} differs")
        return hit


def _search_key(result) -> tuple:
    return (
        result.table.entries, result.tail_latency_ms,
        result.iterations, result.measurements, result.history,
    )


def table_search(ctx: Context) -> UnitResult:
    """Algorithm 1 for a fixed number of iterations, then a cached replay."""
    s = ctx.sizes
    n = s.table_requests
    out = UnitResult()
    config = TargetTableConfig(
        initial_target_ms=15.0,
        max_iterations=s.table_iterations,
        queries_per_measurement=n,
    )
    cache = _CheckedCache(Path(tempfile.mkdtemp(dir=ctx.scratch)), ctx, n)
    cold = runner.build_search_target_table(
        ctx.workload, config, seed=ctx.seed, workers=1, cache=cache
    )
    cache.phase = "replay"
    replay = runner.build_search_target_table(
        ctx.workload, config, seed=ctx.seed, workers=1, cache=cache
    )
    initial = TargetTable.uniform(config.load_grid, config.initial_target_ms)
    initial_objective = runner.make_measure_tail(
        ctx.workload, config, ctx.seed, workers=1, cache=cache
    )(initial)
    # The headline is the lowest MeasureTail load: at higher loads the
    # median moves with the seed-dependent final table by ~11 % (quartile
    # spread over ten seeds) against ~6 % here.
    head = pool.run_cell(
        CellSpec.for_experiment(
            s.workload, "TPC", config.measure_loads_qps[0], n, ctx.seed,
            target_table=cold.table,
        ),
        cache=cache,
    )
    cells = len(cache.written)
    out.sim_requests += cells * n
    with ctx.checking():
        problems = list(cache.problems)
        if _search_key(replay) != _search_key(cold):
            problems.append("cached replay chose a different table")
        if cold.tail_latency_ms > initial_objective:
            problems.append(
                f"final objective {cold.tail_latency_ms:.3f} > initial {initial_objective:.3f}"
            )
        if cells != cold.measurements * len(config.measure_loads_qps):
            problems.append(f"{cells} cells simulated for {cold.measurements} measurements")
        out.operation(cells * n, problems)

    out.simulated.update(
        {
            "tpc_p50_ms": head.summary.p50_ms,
            "tpc_p99_ms": head.summary.p99_ms,
            "tail_objective_ms": cold.tail_latency_ms,
            "alg1_tail_ms": cold.tail_latency_ms,
            "alg1_initial_ms": initial_objective,
            "core.iterations": float(cold.iterations),
            "core.measurements": float(cold.measurements),
            "exec.cache_hits": float(cache.hits),
            "exec.cache_misses": float(cache.misses),
        }
    )
    out.simulated.update(
        _cell_layer_metrics(
            head.queueing_ms, head.executions_ms, head.corrected, head.max_degrees
        )
    )
    return out


WORKLOADS = {
    "isn_sweep": isn_sweep,
    "cluster_hedged": cluster_hedged,
    "table_search": table_search,
}
