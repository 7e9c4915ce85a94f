"""Parallel execution of experiment cells over a process pool.

Every evaluation artifact in this reproduction is a sweep over
independent, deterministically seeded cells, so the executor's job is
embarrassingly parallel: fan :class:`~repro.exec.spec.CellSpec` values
out to worker processes, rebuild the workload from its spec inside
each worker (live workloads never cross process boundaries), simulate,
and ship back compact :class:`~repro.exec.spec.CellResult` payloads.
Results are returned in spec order and are bit-identical to inline
execution — parallelism changes wall-clock time, never numbers.

Worker count resolution (first match wins): explicit ``workers``
argument, the ``REPRO_BENCH_WORKERS`` environment variable, then
``os.cpu_count() - 1`` (at least 1).  A count of 1 runs inline in the
calling process with no pool at all.

Memory note: each worker process memoises the workloads it has built
(:data:`_WORKLOAD_MEMO`), but a built search workload is small (~0.5 MB
canonical): the corpus, inverted index and engine bitsets are freed
once its pool is metered (DESIGN §10).  What each worker pays is the
build's transient peak on top of its imports (``import repro`` is
~35 MB RSS, numpy included): a cold canonical build traces ~53 MB at
its peak, ~101 MB RSS for a process that builds once.  Cap the worker
count if the host is memory-tight.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import ConfigError
from .cache import ENV_CACHE, CacheArg, default_cache
from .spec import CellResult, CellSpec, SweepSpec, WorkloadSpec

__all__ = [
    "ProgressEvent",
    "memoised_workload",
    "forget_workload",
    "resolve_worker_count",
    "run_cell",
    "run_sweep",
    "log_progress",
]

#: Maximum distinct workloads one process keeps alive simultaneously.
_MEMO_CAP = 4

#: Per-process workload memo: spec -> built workload.  Worker processes
#: populate this lazily on their first cell for a given workload spec;
#: forked workers inherit the parent's entries for free.
_WORKLOAD_MEMO: dict[WorkloadSpec, Any] = {}


@dataclass(frozen=True)
class ProgressEvent:
    """Liveness report emitted after each cell completes."""

    completed: int
    total: int
    spec: CellSpec
    #: Simulation wall-clock seconds for this cell (0.0 on a cache hit).
    wall_time_s: float
    from_cache: bool


def log_progress(event: ProgressEvent) -> None:
    """A ready-made progress callback: one line per finished cell."""
    source = "cache" if event.from_cache else f"{event.wall_time_s:.1f}s"
    print(
        f"[exec {event.completed}/{event.total}] "
        f"{event.spec.policy_name} @ {event.spec.qps:g} qps ({source})",
        flush=True,
    )


def resolve_worker_count(workers: int | None = None) -> int:
    """Effective worker count: argument, env var, or cpu_count - 1.

    An empty ``REPRO_BENCH_WORKERS`` counts as unset.
    """
    if workers is None:
        env = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigError(
                    f"REPRO_BENCH_WORKERS must be an integer, got {env!r}"
                ) from None
        else:
            workers = max(1, (os.cpu_count() or 2) - 1)
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return workers


def memoised_workload(spec: WorkloadSpec) -> Any:
    """Build (or reuse) the workload a spec describes, in this process.

    Public so callers outside a cell (``default_workload``, perfbench,
    the test fixtures) share the copy that inline cell execution builds
    instead of paying a second multi-second workload build.
    """
    workload = _WORKLOAD_MEMO.get(spec)
    if workload is None:
        workload = spec.build()
        while len(_WORKLOAD_MEMO) >= _MEMO_CAP:
            _WORKLOAD_MEMO.pop(next(iter(_WORKLOAD_MEMO)))
        _WORKLOAD_MEMO[spec] = workload
    return workload


def forget_workload(spec: WorkloadSpec) -> None:
    """Evict one workload from this process's memo (no-op if absent).

    Lets cold-path measurements (the ``end_to_end_cell`` perf scenario)
    pay the full workload build on every repeat instead of timing the
    memoised copy.
    """
    _WORKLOAD_MEMO.pop(spec, None)


def _execute_cell(spec: CellSpec, observation: Any = None) -> CellResult:
    """Expand and simulate one cell (runs in worker or caller process).

    A cell with ``cluster_config`` set is one partition-aggregate
    cluster run; any other cell is one single-server experiment.
    ``observation`` (a :class:`repro.obs.Observation`, single-server
    cells only) is attached before the run and its scalar telemetry
    lands in ``extras``; the simulated numbers are unchanged by it.
    """
    from ..experiments.runner import run_search_experiment

    if spec.cluster_config is not None and observation is not None:
        raise ConfigError(
            "observe_cell supports single-server cells only; "
            "cluster cells are not observable yet"
        )
    started = time.perf_counter()
    workload = memoised_workload(spec.workload)
    if spec.cluster_config is not None:
        from ..cluster.cluster import run_cluster_experiment

        cluster = run_cluster_experiment(
            workload,
            spec.policy_name,
            spec.qps,
            spec.n_requests,
            spec.seed,
            cluster_config=spec.cluster_config,
            server_config=spec.server_config,
            policy_config=spec.policy_config,
            target_table=spec.target_table,
            load_metric=spec.load_metric,
            prediction=spec.prediction,
            fault_spec=spec.fault_spec,
            hedge_policy=spec.hedge_policy,
        )
        return CellResult.from_cluster(
            spec, cluster, wall_time_s=time.perf_counter() - started
        )
    server = run_search_experiment(workload, spec, observation)
    result = CellResult.from_recorder(
        spec,
        server.policy.name,
        server.recorder,
        wall_time_s=time.perf_counter() - started,
        extras=observation.extras() if observation is not None else None,
    )
    server.close()
    return result


def run_cell(spec: CellSpec, cache: CacheArg = ENV_CACHE) -> CellResult:
    """Execute one cell inline (``cache`` as in :func:`run_sweep`)."""
    return run_sweep([spec], workers=1, cache=cache)[0]


def run_sweep(
    sweep: SweepSpec | Sequence[CellSpec],
    workers: int | None = None,
    cache: CacheArg = ENV_CACHE,
    progress: Callable[[ProgressEvent], None] | None = None,
) -> list[CellResult]:
    """Execute every cell of a sweep; results in spec order.

    ``cache`` is a :class:`~repro.exec.cache.ResultCache`, ``None`` for
    a cold run, or — when omitted — :func:`default_cache`, the one
    place that reads ``REPRO_EXEC_CACHE``.  Cached cells are answered
    without any simulation work.  The remaining cells run inline when
    the effective worker count is 1 (or only one cell is missing),
    otherwise across a process pool.  The
    ``progress`` callback fires once per completed cell, in completion
    order, with cells-completed / total and per-cell wall time.
    """
    if cache is ENV_CACHE:
        cache = default_cache()
    cells = tuple(sweep)
    total = len(cells)
    results: list[CellResult | None] = [None] * total
    completed = 0

    def report(index: int, result: CellResult, from_cache: bool) -> None:
        nonlocal completed
        completed += 1
        if progress is not None:
            progress(
                ProgressEvent(
                    completed=completed,
                    total=total,
                    spec=cells[index],
                    wall_time_s=result.wall_time_s,
                    from_cache=from_cache,
                )
            )

    pending: list[int] = []
    for i, spec in enumerate(cells):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            hit.wall_time_s = 0.0
            results[i] = hit
            report(i, hit, from_cache=True)
        else:
            pending.append(i)

    workers = resolve_worker_count(workers)
    if workers <= 1 or len(pending) <= 1:
        for i in pending:
            result = _execute_cell(cells[i])
            if cache is not None:
                cache.put(cells[i], result)
            results[i] = result
            report(i, result, from_cache=False)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
            futures = {pool.submit(_execute_cell, cells[i]): i for i in pending}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    i = futures[future]
                    result = future.result()
                    if cache is not None:
                        cache.put(cells[i], result)
                    results[i] = result
                    report(i, result, from_cache=False)

    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]

