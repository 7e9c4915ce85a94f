"""Single-ISN experiment runner.

``run_search_experiment`` expands one declared (policy, load) cell:
sample a request trace from the workload pool, replay it through a
simulated server under the chosen policy, and return the finished
server.  Its only caller is :func:`repro.exec.pool._execute_cell`, so
every cell runs, caches and reads as a
:class:`~repro.exec.spec.CellResult`.  ``run_load_sweep`` produces the
series behind Figures 4-7; ``make_measure_tail`` packages a predefined
multi-load experiment as the MeasureTail procedure of Algorithm 1.

Sweeps and MeasureTail route their independent cells through the
:mod:`repro.exec` layer: cells are declared as specs, optionally fanned
out across a process pool (``workers`` / ``REPRO_BENCH_WORKERS``) and
memoised on disk (``cache``; omitted means the exec layer's
environment-selected cache).  Parallel execution is bit-identical to
the serial path — every cell is deterministically seeded and simulated
in isolation either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..config import ServerConfig, TargetTableConfig
from ..core.table_builder import TableSearchResult, build_target_table
from ..core.target_table import TargetTable
from ..errors import ConfigError
from ..exec.cache import ENV_CACHE, CacheArg
from ..exec.pool import ProgressEvent, run_sweep
from ..exec.spec import CellResult, CellSpec, SweepSpec, WorkloadSpec
from ..policies.registry import make_policy
from ..rng import RngFactory
from ..search.workload import SearchWorkload
from ..sim.engine import Engine
from ..sim.load import LoadMetric
from ..sim.metrics import weighted_tail_latency
from ..sim.server import Server
from ..sim.client import OpenLoopClient

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.observe import Observation

__all__ = [
    "run_search_experiment",
    "run_load_sweep",
    "make_measure_tail",
    "make_measure_tail_batch",
    "build_search_target_table",
]


def run_search_experiment(
    workload: SearchWorkload,
    spec: CellSpec,
    observation: Observation | None = None,
) -> Server:
    """Expand one single-server cell over its built workload and run it.

    ``spec.seed`` controls both the trace sample and the arrival
    process, so different policies at the same ``(seed, qps)`` see the
    *same* request sequence and arrival times — paired comparisons,
    like replaying one query log against every policy.

    ``observation`` attaches the observability layer — request spans,
    metrics, policy-decision attribution — to the server before any
    request is submitted.  The latency results are bit-identical with
    or without it.
    """
    rngs = RngFactory(spec.seed)
    server_cfg = (
        spec.server_config if spec.server_config is not None else ServerConfig()
    )
    policy = make_policy(
        spec.policy_name,
        speedup_book=workload.speedup_book,
        group_weights=workload.group_weights,
        target_table=spec.target_table,
        policy_config=spec.policy_config,
        load_metric=spec.load_metric,
    )
    engine = Engine()
    server = Server(server_cfg, policy, engine=engine)
    if observation is not None:
        observation.attach(server)
    requests = workload.make_requests(
        spec.n_requests,
        rngs.get("trace"),
        prediction=spec.prediction,
        oracle_sigma=spec.oracle_sigma,
    )
    client = OpenLoopClient(server)
    client.schedule_trace(engine, requests, spec.qps, rngs.get("arrivals"))
    server.run_to_completion(spec.n_requests)
    return server


def _workload_spec(workload: SearchWorkload) -> WorkloadSpec:
    """The spec cells over ``workload`` are declared on."""
    wspec = WorkloadSpec.from_workload(workload)
    if wspec is None:
        raise ConfigError(
            "the workload carries no build provenance, so its cells cannot "
            "be declared; build it with build_search_workload or a WorkloadSpec"
        )
    return wspec


def run_load_sweep(
    workload: SearchWorkload,
    policy_names: Sequence[str],
    qps_grid: Sequence[float],
    n_requests: int,
    seed: int,
    target_table: TargetTable | None = None,
    workers: int | None = None,
    cache: CacheArg = ENV_CACHE,
    progress: Callable[[ProgressEvent], None] | None = None,
    **kwargs,
) -> dict[str, list[CellResult]]:
    """All (policy, load) cells: ``{policy: [result per QPS]}``.

    The cells are declared as specs and executed through
    :func:`repro.exec.run_sweep`, so ``workers`` and ``cache`` apply;
    ``kwargs`` are further :class:`~repro.exec.spec.CellSpec` fields.
    The workload must carry build provenance (:class:`ConfigError`
    otherwise).
    """
    wspec = _workload_spec(workload)
    sweep = SweepSpec.grid(
        wspec, policy_names, qps_grid, n_requests, seed,
        target_table=target_table, **kwargs,
    )
    cell_results = run_sweep(sweep, workers=workers, cache=cache, progress=progress)
    per_policy = len(qps_grid)
    return {
        name: cell_results[p * per_policy : (p + 1) * per_policy]
        for p, name in enumerate(policy_names)
    }


def _measure_cells(
    wspec: WorkloadSpec,
    tables: Sequence[TargetTable],
    table_config: TargetTableConfig,
    seed: int,
    count: int,
    server_config: ServerConfig | None,
    load_metric: LoadMetric,
) -> list[CellSpec]:
    """The (candidate table x measure load) cells of MeasureTail."""
    return [
        CellSpec.for_experiment(
            wspec, "TPC", qps, count, seed,
            target_table=table,
            server_config=server_config,
            load_metric=load_metric,
        )
        for table in tables
        for qps in table_config.measure_loads_qps
    ]


def make_measure_tail(
    workload: SearchWorkload,
    table_config: TargetTableConfig,
    seed: int,
    n_requests: int | None = None,
    server_config: ServerConfig | None = None,
    load_metric: LoadMetric = LoadMetric.LONG_THREADS,
    workers: int | None = None,
    cache: CacheArg = ENV_CACHE,
) -> Callable[[TargetTable], float]:
    """The MeasureTail procedure of Algorithm 1.

    Returns a callable that runs the predefined experiment — TPC over
    every load in ``table_config.measure_loads_qps`` — with a candidate
    table and returns the weighted sum of the per-load tail latencies.
    The per-load runs route through :mod:`repro.exec`, so a result
    cache makes repeated evaluations of the same candidate table free.
    """
    measure_batch = make_measure_tail_batch(
        workload, table_config, seed,
        n_requests=n_requests,
        server_config=server_config,
        load_metric=load_metric,
        workers=workers,
        cache=cache,
    )

    def measure(table: TargetTable) -> float:
        return measure_batch([table])[0]

    return measure


def make_measure_tail_batch(
    workload: SearchWorkload,
    table_config: TargetTableConfig,
    seed: int,
    n_requests: int | None = None,
    server_config: ServerConfig | None = None,
    load_metric: LoadMetric = LoadMetric.LONG_THREADS,
    workers: int | None = None,
    cache: CacheArg = ENV_CACHE,
) -> Callable[[Sequence[TargetTable]], list[float]]:
    """Batched MeasureTail: evaluate several candidate tables at once.

    The greedy search of Algorithm 1 measures every single-entry bump of
    the current table per iteration; those candidates are independent,
    so evaluating them as one sweep lets the process pool run
    ``len(tables) * len(measure_loads_qps)`` simulations concurrently.
    """
    count = (
        n_requests
        if n_requests is not None
        else table_config.queries_per_measurement
    )
    wspec = _workload_spec(workload)
    loads = len(table_config.measure_loads_qps)

    def measure_batch(tables: Sequence[TargetTable]) -> list[float]:
        cells = _measure_cells(
            wspec, tables, table_config, seed, count,
            server_config, load_metric,
        )
        results = run_sweep(cells, workers=workers, cache=cache)
        return [
            weighted_tail_latency(
                [r.responses_ms for r in results[t * loads : (t + 1) * loads]],
                table_config.measure_weights,
                table_config.percentile,
            )
            for t in range(len(tables))
        ]

    return measure_batch


def build_search_target_table(
    workload: SearchWorkload,
    table_config: TargetTableConfig | None = None,
    seed: int = 1234,
    workers: int | None = None,
    cache: CacheArg = ENV_CACHE,
    **measure_kwargs,
) -> TableSearchResult:
    """Run Algorithm 1 end-to-end for a search workload.

    The candidate measurements of each greedy iteration fan out across
    the :mod:`repro.exec` process pool; the accepted table, iteration
    trace and measurement count are bit-identical to a serial search.
    """
    cfg = table_config if table_config is not None else TargetTableConfig()
    initial = TargetTable.uniform(cfg.load_grid, cfg.initial_target_ms)
    measure_batch = make_measure_tail_batch(
        workload, cfg, seed, workers=workers, cache=cache, **measure_kwargs
    )
    return build_target_table(
        initial, cfg.step_ms, measure_batch, max_iterations=cfg.max_iterations
    )
