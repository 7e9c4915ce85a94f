"""Performance benchmark harness for the simulation core.

Microbenchmarks at several integration depths (bare engine, server
under load, observability overhead, end-to-end experiment cell), a
best-of-N runner with peak-RSS and cProfile hooks, and a JSON report
(``BENCH_perf.json``).  Each scenario's throughput is judged with the
fidelity gate's bands against the shared baseline store
(``benchmarks/baselines/gate_baseline.json``).  Run with::

    python -m repro.perf --fast

The ``server_under_load`` scenario is the fidelity gate's hot-path
benchmark: :mod:`repro.gate.checks` imports it from here and pins its
event count, while this harness judges its throughput.
"""

from .report import THROUGHPUT_REL_LO, build_report, throughput_measurements
from .runner import ScenarioRun, peak_rss_kb, run_scenario
from .scenarios import (
    HOTPATH_SEED,
    PRE_PR_EVENTS_PER_S,
    SCENARIOS,
    HotpathResult,
    ScenarioSpec,
    run_end_to_end_cell,
    run_engine_only,
    run_hotpath_benchmark,
    run_server_under_load,
    scenario,
)

__all__ = [
    "HOTPATH_SEED",
    "PRE_PR_EVENTS_PER_S",
    "SCENARIOS",
    "HotpathResult",
    "ScenarioSpec",
    "ScenarioRun",
    "scenario",
    "run_engine_only",
    "run_server_under_load",
    "run_end_to_end_cell",
    "run_hotpath_benchmark",
    "run_scenario",
    "peak_rss_kb",
    "build_report",
    "throughput_measurements",
    "THROUGHPUT_REL_LO",
]
