"""Benchmark scenarios for the simulation core.

Microbenchmarks at several integration depths: bare engine, server
under load, observability overhead and an end-to-end experiment cell.
The fidelity gate's timed ``perf`` check runs each one best-of-three
and judges its throughput against the shared baseline store
(``benchmarks/baselines/gate_baseline.json``)::

    python -m repro.gate --fast --only perf

The ``server_under_load`` scenario is also the gate's hot-path
benchmark: the ``perf_budget`` check pins its event count.
"""

from .scenarios import (
    HOTPATH_SEED,
    SCENARIOS,
    HotpathResult,
    ScenarioSpec,
    run_end_to_end_cell,
    run_engine_only,
    run_hotpath_benchmark,
    run_server_under_load,
)

__all__ = [
    "HOTPATH_SEED",
    "SCENARIOS",
    "HotpathResult",
    "ScenarioSpec",
    "run_engine_only",
    "run_server_under_load",
    "run_end_to_end_cell",
    "run_hotpath_benchmark",
]
