"""Fault injection, request hedging, and partial-wait aggregation.

The resilience subsystem layers two opt-in mechanisms on the cluster
simulation of :mod:`repro.cluster`:

* :class:`FaultSpec` — deterministic per-ISN fault windows (transient
  slowdowns, degraded worker pools, crash blackouts), frozen plain
  data that participates in ``repro.exec`` content hashes;
* :class:`HedgePolicy` — aggregator-side mitigations: wait-for-k-of-n
  partial aggregation, timeout-triggered hedged re-issue of lagging
  replicas, and tied-request cancellation.

Both default to exact no-ops: with neither active, a cluster run's
latencies are bit-identical to a run that omits them and its result
carries no resilience accounting.  :func:`run_shared_resilient` is the
shared-engine cluster runner behind every
:func:`repro.cluster.run_cluster_experiment` call, cluster cells included.

``python -m repro.resilience`` runs named fault scenarios comparing the
paper's policies and writes a ``BENCH_resilience.json`` report.
"""

from .faults import FaultKind, FaultSpec, FaultWindow, sample_fault_spec
from .hedging import HedgePolicy
from .cluster import run_shared_resilient
from .scenarios import (
    Scenario,
    ScenarioResult,
    get_scenario,
    list_scenarios,
    run_scenario,
)

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultWindow",
    "sample_fault_spec",
    "HedgePolicy",
    "run_shared_resilient",
    "Scenario",
    "ScenarioResult",
    "get_scenario",
    "list_scenarios",
    "run_scenario",
]
