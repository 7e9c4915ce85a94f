"""Machine-checked fidelity and performance gate (``repro.gate``).

The repository's claim is that its simulated TPC reproduces the
paper's numbers.  This package turns that claim into an executable
contract: a registry of :class:`GateCheck`\\ s declares the paper's
headline metrics as tolerance bands — the Section 2 demand
distribution, the Section 4 policy orderings at fixed loads,
cluster-vs-single-ISN consistency, and the simulator hot path's
deterministic event count — and :func:`run_gate` re-derives every metric
from deterministic :class:`~repro.exec.spec.SweepSpec` cells executed
through the :mod:`repro.exec` pool and cache, so a warm re-run is
near-free.

The outcome is a versioned ``BENCH_gate.json`` report (git SHA,
pass/fail per check, measured value vs. band, timings) plus a
human-readable summary.  Baselines for machine-relative bands live
in ``benchmarks/baselines/gate_baseline.json`` and are refreshed with
``python -m repro.gate --update-baselines``.  :mod:`repro.perf` judges
throughput with the same bands and the same baseline file.

Run it locally::

    python -m repro.gate --fast            # the CI configuration
    python -m repro.gate --full            # paper-scale samples
    python -m repro.gate --only policy_ordering_p99
"""

from .bands import Band, EvaluatedMeasurement, Measurement
from .baselines import (
    default_baselines_path,
    load_baselines,
    save_baselines,
)
from .checks import (
    CHECKS,
    GATE_SEED,
    GateCheck,
    GateScale,
    demand_measurements,
    ordering_measurements,
    scale_for_mode,
)
from .report import CheckReport, GateReport
from .runner import GateContext, run_gate

__all__ = [
    "Band",
    "Measurement",
    "EvaluatedMeasurement",
    "GateCheck",
    "GateScale",
    "GateContext",
    "GateReport",
    "CheckReport",
    "CHECKS",
    "GATE_SEED",
    "scale_for_mode",
    "demand_measurements",
    "ordering_measurements",
    "run_gate",
    "load_baselines",
    "save_baselines",
    "default_baselines_path",
]
