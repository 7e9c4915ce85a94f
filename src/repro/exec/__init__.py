"""Experiment-execution layer: declarative cells, process pool, cache.

``repro.exec`` separates *what* an experiment is from *how* it runs.
Sweeps are declared as frozen :class:`CellSpec`/:class:`SweepSpec`
values, executed inline or across a process pool (:func:`run_sweep`),
and optionally memoised on disk by content hash (:class:`ResultCache`;
an omitted ``cache`` is :func:`default_cache`, opt-in through
``REPRO_EXEC_CACHE=1``).
The layers above — the experiment runner, the Algorithm 1 table
builder, the cluster harness and the benchmarks — all route their
independent simulation cells through this module.
"""

from .cache import ENV_CACHE, ResultCache, default_cache
from .pool import (
    ProgressEvent,
    log_progress,
    forget_workload,
    memoised_workload,
    resolve_worker_count,
    run_cell,
    run_sweep,
)
from .spec import CellResult, CellSpec, SweepSpec, WorkloadSpec, spec_hash

__all__ = [
    "CellSpec",
    "SweepSpec",
    "WorkloadSpec",
    "CellResult",
    "spec_hash",
    "ResultCache",
    "default_cache",
    "ENV_CACHE",
    "ProgressEvent",
    "log_progress",
    "forget_workload",
    "memoised_workload",
    "resolve_worker_count",
    "run_cell",
    "run_sweep",
]
