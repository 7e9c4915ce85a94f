"""Cluster experiment: N ISNs behind one aggregator on a shared clock.

Every logical query fans out to all ISNs.  Each ISN receives its own
replica of the request with lognormally jittered demand (document
sharding spreads work evenly but not identically) and schedules it
independently under its own policy instance; the aggregator answers
when the slowest replica completes.  All ISNs share one target table,
matching the paper's observation that evenly-balanced ISNs converge to
the same table (Section 3.3).

All shared randomness — trace, arrivals, the demand-jitter matrix — is
drawn once up front, and the run goes to the shared-engine runner
:func:`repro.resilience.cluster.run_shared_resilient`, which puts every
ISN on one engine and also serves fault injection and hedging.  A
cluster run is one simulation; sweeps parallelise across cluster cells
through :func:`repro.exec.run_sweep` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import ClusterConfig, PolicyConfig, ServerConfig
from ..core.target_table import TargetTable
from ..errors import ConfigError
# Bound here only so perfbench's tracer can patch it; unused in this module.
from ..policies.registry import make_policy  # noqa: F401
from ..rng import RngFactory
from ..search.workload import SearchWorkload
from ..sim.client import poisson_arrival_times
from ..sim.load import LoadMetric
from ..sim.metrics import LatencyRecorder, ResilienceStats, percentile

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
    workers: int | None = None,
    fault_spec: "FaultSpec | None" = None,
    hedge_policy: "HedgePolicy | None" = None,
) -> ClusterExperimentResult:
    """Run one policy on a full partition-aggregate cluster.

    Every ISN gets an independent policy instance and server but they
    share the simulation clock, the target table and the predictor, as
    in the paper's deployment.  ``workers`` is accepted and ignored: a
    cluster run is one simulation on one engine, and existing callers
    still pass it.  Parallelise across cluster cells with
    :func:`repro.exec.run_sweep` instead.

    ``fault_spec`` injects per-ISN fault windows and ``hedge_policy``
    enables partial-wait aggregation and hedged re-issue (see
    :mod:`repro.resilience`); the result's ``resilience`` then carries
    the mitigation accounting.  With both options at their no-op
    defaults ``resilience`` is None.
    """
    if n_queries < 1:
        raise ConfigError("n_queries must be >= 1")
    ccfg = cluster_config if cluster_config is not None else ClusterConfig()
    scfg = server_config if server_config is not None else ServerConfig()
    rngs = RngFactory(seed)

    # All shared randomness is drawn up front, in one fixed stream
    # order (the cluster goldens pin it).
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

    from ..resilience.cluster import run_shared_resilient

    return run_shared_resilient(
        workload, policy_name, qps,
        ccfg, scfg, policy_config, target_table, load_metric,
        logical, arrivals, jitters,
        fault_spec=fault_spec, hedge_policy=hedge_policy,
    )

