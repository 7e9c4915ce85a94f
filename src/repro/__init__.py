"""repro — reproduction of "TPC: Target-Driven Parallelism Combining
Prediction and Correction to Reduce Tail Latency in Interactive
Services" (Jeon et al., ASPLOS 2016).

The package implements the paper's full system and every substrate it
depends on (see DESIGN.md):

* :mod:`repro.core` — the TPC algorithm: speedup profiles, target
  tables, predictive parallelism, dynamic correction, Algorithm 1.
* :mod:`repro.sim` — a discrete-event multi-core ISN server model.
* :mod:`repro.search` — a from-scratch web-search substrate (corpus,
  inverted index, BM25 scoring, task-pool parallel execution) whose
  measured behaviour is calibrated against the paper's Section 2.
* :mod:`repro.prediction` — boosted-tree execution-time prediction.
* :mod:`repro.policies` — TPC plus every baseline of the evaluation
  (Sequential, AP, Pred, WQ-Linear, RampUp, TP).
* :mod:`repro.cluster` — the 40-ISN partition-aggregate cluster.
* :mod:`repro.finance` — the Monte Carlo option-pricing server.
* :mod:`repro.experiments` — the harness regenerating every figure
  and table of the evaluation.
* :mod:`repro.exec` — the execution layer: declarative experiment
  cells fanned out over a process pool with an on-disk result cache.
* :mod:`repro.resilience` — fault injection (stragglers, degraded
  cores, blackouts), request hedging and wait-for-k aggregation for
  the cluster layer.

Quickstart
----------
>>> from repro import CellSpec, run_cell
>>> from repro import default_target_table, default_workload_spec
>>> spec = CellSpec.for_experiment(
...     default_workload_spec(), "TPC", qps=450, n_requests=5000, seed=1,
...     target_table=default_target_table())
>>> result = run_cell(spec)                   # builds the workload once
>>> result.summary.p99_ms < 150                          # doctest: +SKIP
True
"""

from ._version import __version__
from .config import (
    ClusterConfig,
    PolicyConfig,
    PredictorConfig,
    SearchWorkloadConfig,
    ServerConfig,
    TargetTableConfig,
)
from .core import (
    CorrectionController,
    SpeedupBook,
    SpeedupProfile,
    TargetTable,
    build_target_table,
    select_degree,
)
from .errors import ReproError
from .exec import (
    CellSpec,
    ResultCache,
    SweepSpec,
    WorkloadSpec,
    run_cell,
    run_sweep,
)
from .experiments import (
    default_target_table,
    default_workload,
    default_workload_spec,
    run_load_sweep,
)
from .policies import make_policy, policy_names
from .search import build_search_workload
from .finance import build_finance_workload
from .cluster import run_cluster_experiment
from .resilience import FaultSpec, HedgePolicy, run_scenario
from .sim import Engine, LatencyRecorder, Request, Server

__all__ = [
    "__version__",
    # configs
    "ServerConfig",
    "SearchWorkloadConfig",
    "PredictorConfig",
    "PolicyConfig",
    "TargetTableConfig",
    "ClusterConfig",
    # core
    "SpeedupProfile",
    "SpeedupBook",
    "TargetTable",
    "CorrectionController",
    "select_degree",
    "build_target_table",
    # errors
    "ReproError",
    # workloads & experiments
    "build_search_workload",
    "build_finance_workload",
    "default_workload",
    "default_workload_spec",
    "default_target_table",
    "run_load_sweep",
    "run_cluster_experiment",
    # resilience
    "FaultSpec",
    "HedgePolicy",
    "run_scenario",
    # execution layer
    "CellSpec",
    "SweepSpec",
    "WorkloadSpec",
    "ResultCache",
    "run_cell",
    "run_sweep",
    # policies
    "make_policy",
    "policy_names",
    # simulation
    "Engine",
    "Server",
    "Request",
    "LatencyRecorder",
]
