"""Experiment harness: single-ISN runs, sweeps, MeasureTail, reports.

Ties the workload substrate, policies and simulator into the paper's
experiments.  ``runner`` expands one (policy, load) cell for the exec
layer and declares sweeps and MeasureTail over it;
``scenarios`` holds the canonical configurations of every figure and
table; ``report`` renders results as the rows the paper prints.
"""

from .runner import (
    run_load_sweep,
    make_measure_tail,
    make_measure_tail_batch,
    build_search_target_table,
)
from .scenarios import (
    DEFAULT_QPS_GRID,
    DEFAULT_RPS_GRID_FINANCE,
    DEFAULT_SEARCH_TARGET_TABLE,
    DEFAULT_FINANCE_TARGET_TABLE,
    FIGURE_POLICIES,
    default_workload,
    default_workload_spec,
    default_target_table,
)
from .report import format_table

__all__ = [
    "run_load_sweep",
    "make_measure_tail",
    "make_measure_tail_batch",
    "build_search_target_table",
    "DEFAULT_QPS_GRID",
    "DEFAULT_RPS_GRID_FINANCE",
    "DEFAULT_SEARCH_TARGET_TABLE",
    "DEFAULT_FINANCE_TARGET_TABLE",
    "FIGURE_POLICIES",
    "default_workload",
    "default_workload_spec",
    "default_target_table",
    "format_table",
]
