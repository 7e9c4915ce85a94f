"""Cluster experiment: N ISNs behind one aggregator on a shared clock.

Every logical query fans out to all ISNs.  Each ISN receives its own
replica of the request with lognormally jittered demand (document
sharding spreads work evenly but not identically) and schedules it
independently under its own policy instance; the aggregator answers
when the slowest replica completes.  All ISNs share one target table,
matching the paper's observation that evenly-balanced ISNs converge to
the same table (Section 3.3).

All shared randomness — trace, arrivals, the demand-jitter matrix — is
drawn once up front, and the run then takes one of two execution paths:

* the shared-engine runner
  :func:`repro.resilience.cluster.run_shared_resilient`, which puts
  every ISN on one engine and also serves fault injection and hedging;
* the decomposed path, used when ``workers > 1``, the cluster has more
  than one ISN, and no fault or hedge option is active.  Healthy ISNs
  never interact — each server's events touch only its own state, and
  the aggregator is a pure max over replica completion times — so the
  experiment splits exactly into one independent simulation per ISN.
  The per-ISN runs fan out across the :mod:`repro.exec` process pool,
  and the reassembled result is bit-identical to the shared engine's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..config import ClusterConfig, PolicyConfig, ServerConfig
from ..core.speedup import SpeedupBook
from ..core.target_table import TargetTable
from ..errors import ConfigError, SimulationError
from ..exec.pool import resolve_worker_count, run_tasks
from ..policies.registry import make_policy
from ..rng import RngFactory
from ..search.workload import SearchWorkload
from ..sim.client import poisson_arrival_times
from ..sim.engine import Engine
from ..sim.load import LoadMetric
from ..sim.metrics import LatencyRecorder, ResilienceStats, percentile
from ..sim.request import Request
from ..sim.server import Server

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.faults import FaultSpec
    from ..resilience.hedging import HedgePolicy

__all__ = ["ClusterExperimentResult", "run_cluster_experiment"]


@dataclass
class ClusterExperimentResult:
    """Outcome of one cluster run."""

    policy_name: str
    qps: float
    num_isns: int
    #: Aggregator response time per logical query (ms).
    aggregator_latencies_ms: np.ndarray
    #: Response times of every individual ISN replica (ms).
    isn_latencies_ms: np.ndarray
    #: Per-ISN recorders (index = ISN id).
    isn_recorders: list[LatencyRecorder]
    #: Mitigation accounting; None when no fault or hedge option is active.
    resilience: ResilienceStats | None = None

    def aggregator_percentile(self, p: float) -> float:
        """Percentile of the aggregator (user-visible) latency."""
        return percentile(self.aggregator_latencies_ms, p)

    def isn_percentile(self, p: float) -> float:
        """Percentile of individual ISN response times."""
        return percentile(self.isn_latencies_ms, p)

    def isn_percentile_of_latency(self, latency_ms: float) -> float:
        """Which ISN percentile a given latency value sits at.

        Used for Figure 8(b): the paper observes that the P99
        aggregator latency corresponds to roughly the P99.8 latency of
        an individual ISN.
        """
        arr = np.sort(self.isn_latencies_ms)
        rank = np.searchsorted(arr, latency_ms, side="right")
        return 100.0 * rank / len(arr)

    def fraction_slower_than(self, latency_ms: float) -> float:
        """Fraction of aggregator responses slower than ``latency_ms``."""
        return float((self.aggregator_latencies_ms > latency_ms).mean())


@dataclass(frozen=True)
class _IsnTask:
    """Everything one worker needs to simulate a single ISN."""

    isn: int
    server_config: ServerConfig
    policy_name: str
    policy_config: PolicyConfig | None
    load_metric: LoadMetric
    target_entries: tuple[tuple[float, float], ...] | None
    speedup_book: SpeedupBook
    group_weights: tuple[float, ...]
    #: Per-request (rid, demand_ms, predicted_ms, profile) replicas.
    replicas: tuple
    arrivals_ms: tuple[float, ...]


def _run_single_isn(task: _IsnTask) -> tuple[np.ndarray, LatencyRecorder]:
    """Simulate one ISN in isolation; returns (finish times, recorder).

    ``finish[i]`` is the absolute completion time of the replica of the
    i-th submitted query.  Per-ISN behaviour is identical to the
    shared-engine run: a server's events depend only on its own state,
    and relative ordering of one server's equal-time events is the
    insertion order in both layouts.
    """
    engine = Engine()
    table = (
        TargetTable(task.target_entries)
        if task.target_entries is not None
        else None
    )
    policy = make_policy(
        task.policy_name,
        speedup_book=task.speedup_book,
        group_weights=task.group_weights,
        target_table=table,
        policy_config=task.policy_config,
        load_metric=task.load_metric,
    )
    n = len(task.replicas)
    finishes = np.full(n, np.nan, dtype=np.float64)
    order = {rid: i for i, (rid, _, _, _) in enumerate(task.replicas)}

    def on_complete(request: Request) -> None:
        finishes[order[request.rid]] = engine.now

    server = Server(
        task.server_config,
        policy,
        engine=engine,
        completion_callback=on_complete,
    )
    for (rid, demand, predicted, profile), at in zip(
        task.replicas, task.arrivals_ms
    ):
        replica = Request(
            rid=rid,
            demand_ms=demand,
            predicted_ms=predicted,
            speedup=profile,
        )

        def submit(req: Request = replica) -> None:
            server.submit(req)

        engine.schedule_at(float(at), submit)
    server.run_to_completion(n)
    if np.isnan(finishes).any():
        raise SimulationError(f"ISN {task.isn} dropped replicas")
    return finishes, server.recorder


def run_cluster_experiment(
    workload: SearchWorkload,
    policy_name: str,
    qps: float,
    n_queries: int,
    seed: int,
    cluster_config: ClusterConfig | None = None,
    server_config: ServerConfig | None = None,
    policy_config: PolicyConfig | None = None,
    target_table: TargetTable | None = None,
    load_metric: LoadMetric = LoadMetric.LONG_THREADS,
    prediction: str = "model",
    workers: int | None = 1,
    progress: Callable[[int, int], None] | None = None,
    fault_spec: "FaultSpec | None" = None,
    hedge_policy: "HedgePolicy | None" = None,
) -> ClusterExperimentResult:
    """Run one policy on a full partition-aggregate cluster.

    Every ISN gets an independent policy instance and server but they
    share the simulation clock, the target table and the predictor, as
    in the paper's deployment.  ``workers`` (None = the
    ``REPRO_BENCH_WORKERS`` / cpu-count default) selects how many
    processes the per-ISN simulations fan out over; results are
    bit-identical at any worker count.  ``progress`` receives
    ``(isns_completed, num_isns)`` in parallel mode.

    ``fault_spec`` injects per-ISN fault windows and ``hedge_policy``
    enables partial-wait aggregation and hedged re-issue (see
    :mod:`repro.resilience`).  Either option couples the ISNs (hedges
    move work between nodes, faults are wall-clock windows on the
    shared clock), so the run then stays on the shared engine
    regardless of ``workers`` and the result's ``resilience`` carries
    the mitigation accounting.  With both options at their no-op
    defaults ``resilience`` is None.
    """
    if n_queries < 1:
        raise ConfigError("n_queries must be >= 1")
    ccfg = cluster_config if cluster_config is not None else ClusterConfig()
    scfg = server_config if server_config is not None else ServerConfig()
    rngs = RngFactory(seed)

    # All shared randomness is drawn up front, in the exact stream
    # order of the original single-engine implementation, so both
    # execution layouts see identical traces, arrivals and jitters.
    logical = workload.make_requests(
        n_queries, rngs.get("trace"), prediction=prediction
    )
    arrivals = poisson_arrival_times(n_queries, qps, rngs.get("arrivals"))
    jitter_rng = rngs.get("shard-jitter")
    sigma = ccfg.demand_jitter_sigma
    jitters = [
        (
            jitter_rng.lognormal(-sigma**2 / 2.0, sigma, size=ccfg.num_isns)
            if sigma > 0
            else np.ones(ccfg.num_isns)
        )
        for _ in range(n_queries)
    ]

    noop = (fault_spec is None or fault_spec.is_noop) and (
        hedge_policy is None or hedge_policy.is_noop(ccfg.num_isns)
    )
    if noop:
        effective_workers = resolve_worker_count(workers)
        if effective_workers > 1 and ccfg.num_isns > 1:
            return _run_decomposed(
                workload, policy_name, qps, n_queries,
                ccfg, scfg, policy_config, target_table, load_metric,
                logical, arrivals, jitters, effective_workers, progress,
            )

    from ..resilience.cluster import run_shared_resilient

    return run_shared_resilient(
        workload, policy_name, qps,
        ccfg, scfg, policy_config, target_table, load_metric,
        logical, arrivals, jitters,
        fault_spec=fault_spec, hedge_policy=hedge_policy,
    )


def _run_decomposed(
    workload: SearchWorkload,
    policy_name: str,
    qps: float,
    n_queries: int,
    ccfg: ClusterConfig,
    scfg: ServerConfig,
    policy_config: PolicyConfig | None,
    target_table: TargetTable | None,
    load_metric: LoadMetric,
    logical,
    arrivals: np.ndarray,
    jitters: list[np.ndarray],
    workers: int,
    progress: Callable[[int, int], None] | None,
) -> ClusterExperimentResult:
    """Fan the per-ISN simulations across the exec process pool."""
    entries = target_table.entries if target_table is not None else None
    arrival_tuple = tuple(float(a) for a in arrivals)
    tasks = [
        _IsnTask(
            isn=isn,
            server_config=scfg,
            policy_name=policy_name,
            policy_config=policy_config,
            load_metric=load_metric,
            target_entries=entries,
            speedup_book=workload.speedup_book,
            group_weights=tuple(workload.group_weights),
            replicas=tuple(
                (
                    request.rid,
                    float(request.demand_ms * jitters[q][isn]),
                    request.predicted_ms,
                    request.speedup,
                )
                for q, request in enumerate(logical)
            ),
            arrivals_ms=arrival_tuple,
        )
        for isn in range(ccfg.num_isns)
    ]
    runs = run_tasks(_run_single_isn, tasks, workers=workers, progress=progress)
    finishes = np.stack([f for f, _ in runs])  # (num_isns, n_queries)
    recorders = [rec for _, rec in runs]

    arrivals_arr = np.asarray(arrivals, dtype=np.float64)
    responses = finishes - arrivals_arr[np.newaxis, :]  # per-replica latency
    slowest = finishes.max(axis=0)
    # The shared-engine aggregator emits each query when its last
    # replica completes: ascending slowest-finish order (qid breaks the
    # measure-zero ties).
    emit_order = np.lexsort((np.arange(n_queries), slowest))
    aggregator_latencies = (
        slowest[emit_order]
        - arrivals_arr[emit_order]
        + ccfg.network_overhead_ms
    )
    # Within one query, replica responses arrive in completion-time
    # order (ISN index breaks exact ties, matching fan-out order).
    isn_latencies: list[float] = []
    for q in emit_order:
        col_order = np.lexsort((np.arange(ccfg.num_isns), finishes[:, q]))
        isn_latencies.extend(responses[col_order, q].tolist())

    return ClusterExperimentResult(
        policy_name=policy_name,
        qps=qps,
        num_isns=ccfg.num_isns,
        aggregator_latencies_ms=aggregator_latencies,
        isn_latencies_ms=np.asarray(isn_latencies, dtype=np.float64),
        isn_recorders=recorders,
    )
