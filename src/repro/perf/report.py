"""Throughput judgement and BENCH_perf.json assembly.

Each scenario's throughput becomes one gate
:class:`~repro.gate.bands.Measurement`, ``perf.<scenario>.<key>`` (for
example ``perf.server_under_load.events_per_s``), banded at
:data:`THROUGHPUT_REL_LO` of its stored baseline and judged by
:func:`repro.gate.bands.evaluate_measurement` against the shared
baseline store (:mod:`repro.gate.baselines`).  A scenario with no
stored baseline is recorded with a note, not failed, so adding a
scenario never fails CI before its baseline lands.

``BENCH_perf.json`` (schema 2) opens with the common artifact header,
then records the verdict, each scenario's best-of-N metrics and the
evaluated measurements with their effective floors and baselines.
"""

from __future__ import annotations

from typing import Sequence

from ..artifacts import artifact_header
from ..gate.bands import Band, EvaluatedMeasurement, Measurement
from .runner import ScenarioRun
from .scenarios import PRE_PR_EVENTS_PER_S, SCENARIOS

__all__ = [
    "THROUGHPUT_REL_LO",
    "throughput_measurements",
    "build_report",
]

SCHEMA_VERSION = 2

#: A scenario fails when its throughput drops below this fraction of
#: its baseline: loose enough for CI machine jitter, tight enough to
#: catch real hot-path regressions.
THROUGHPUT_REL_LO = 0.70

_UNITS = {"events_per_s": "events/s", "requests_per_s": "req/s"}


def throughput_measurements(runs: Sequence[ScenarioRun]) -> list[Measurement]:
    """One banded, baseline-keyed throughput measurement per run."""
    measurements = []
    for run in runs:
        key = SCENARIOS[run.name].throughput_key
        measurements.append(
            Measurement(
                f"perf.{run.name}.{key}",
                run.metrics[key],
                Band(rel_lo=THROUGHPUT_REL_LO, unit=_UNITS[key]),
                paper_ref=f"best of {run.repeats} at size {run.size}",
                baseline_key=True,
            )
        )
    return measurements


def build_report(
    runs: Sequence[ScenarioRun],
    fast: bool,
    evaluated: Sequence[EvaluatedMeasurement] = (),
) -> dict:
    """Assemble the BENCH_perf.json document from scenario runs."""
    mode = "fast" if fast else "full"
    pre_pr = PRE_PR_EVENTS_PER_S[mode]
    scenarios: dict[str, dict] = {}
    for run in runs:
        entry: dict = {
            "size": run.size,
            "repeats": run.repeats,
            "peak_rss_kb": run.peak_rss_kb,
            "all_wall_times_s": list(run.all_wall_times_s),
        }
        entry.update(run.metrics)
        if run.name == "server_under_load":
            # Informational: the dev-machine pre-optimisation reference
            # (see scenarios.PRE_PR_EVENTS_PER_S); not a pass/fail bound.
            entry["pre_pr_events_per_s"] = pre_pr
            entry["speedup_vs_pre_pr"] = run.metrics["events_per_s"] / pre_pr
        entry["throughput_key"] = SCENARIOS[run.name].throughput_key
        scenarios[run.name] = entry
    return {
        **artifact_header("repro.perf", SCHEMA_VERSION, mode),
        "status": "pass" if all(m.passed for m in evaluated) else "fail",
        "pre_pr_reference": {
            "scenario": "server_under_load",
            "events_per_s": pre_pr,
            "note": "dev-machine measurement before the hot-path "
            "optimisation pass; informational only",
        },
        "scenarios": scenarios,
        "measurements": [m.as_dict() for m in evaluated],
    }
