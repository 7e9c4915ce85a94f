"""Cluster-cell execution for the ``repro.exec`` layer.

A :class:`~repro.exec.spec.CellSpec` with ``cluster_config`` set
expands into a full partition-aggregate cluster run instead of a
single-server experiment.  The compact result maps the aggregator's
user-visible latencies onto the ``responses_ms`` array (the sample
every downstream consumer reads percentiles from) and carries the
resilience accounting and per-ISN percentiles in ``extras``; the
per-request single-server arrays stay empty because a cluster cell has
no single meaningful per-replica decomposition of queueing vs
execution time.

Because :class:`~repro.resilience.faults.FaultSpec` and
:class:`~repro.resilience.hedging.HedgePolicy` are frozen plain data,
they participate in the cell's content hash, so faulted runs cache in
the same on-disk :class:`~repro.exec.cache.ResultCache` as everything
else: same seed, same spec — same cell, any process.
"""

from __future__ import annotations

import time

import numpy as np

from ..exec.spec import CellResult, CellSpec
from ..sim.metrics import LatencySummary

__all__ = ["execute_cluster_cell"]


def _empty_f64() -> np.ndarray:
    return np.empty(0, dtype=np.float64)


def execute_cluster_cell(spec: CellSpec) -> CellResult:
    """Expand and simulate one cluster cell (deterministic per spec)."""
    from ..cluster.cluster import run_cluster_experiment
    from ..exec.pool import memoised_workload

    assert spec.cluster_config is not None
    started = time.perf_counter()
    workload = memoised_workload(spec.workload)
    result = run_cluster_experiment(
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
    latencies = np.asarray(result.aggregator_latencies_ms, dtype=np.float64)
    summary = LatencySummary.from_latencies(latencies)
    extras: dict[str, float] = {
        "num_isns": float(result.num_isns),
        "isn_p99_ms": result.isn_percentile(99),
        "isn_p999_ms": result.isn_percentile(99.9),
        # Figure 8(b): the ISN percentile the aggregator's p99 sits at.
        "isn_pct_at_agg_p99": float(
            result.isn_percentile_of_latency(summary.p99_ms)
        ),
    }
    if result.resilience is not None:
        extras.update(result.resilience.as_row())
    return CellResult(
        spec_hash=spec.content_hash,
        policy_name=result.policy_name,
        qps=spec.qps,
        summary=summary,
        responses_ms=latencies,
        queueing_ms=_empty_f64(),
        executions_ms=_empty_f64(),
        demands_ms=_empty_f64(),
        predictions_ms=_empty_f64(),
        initial_degrees=np.empty(0, dtype=np.int64),
        max_degrees=np.empty(0, dtype=np.int64),
        corrected=np.empty(0, dtype=bool),
        wall_time_s=time.perf_counter() - started,
        extras=extras,
    )
