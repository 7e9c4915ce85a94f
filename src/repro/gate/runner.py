"""Gate execution: dedupe cells across checks, run, judge, report.

:func:`run_gate` is the single entry point behind the CLI and the
tests.  It collects every cell the enabled checks declare, dedupes
them by content hash, executes the union through
:func:`repro.exec.run_sweep` (process pool + on-disk cache), then
hands each check a :class:`GateContext` to reduce its results to
banded measurements.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Sequence

from ..artifacts import artifact_header
from ..errors import ConfigError
from ..exec.cache import ENV_CACHE, CacheArg
from ..exec.pool import ProgressEvent, run_sweep
from ..exec.spec import CellResult, CellSpec
from .bands import EvaluatedMeasurement, Measurement, evaluate_measurement
from .baselines import load_baselines
from .checks import CHECKS, GateCheck, GateScale, scale_for_mode
from .report import REPORT_SCHEMA_VERSION, CheckReport, GateReport

__all__ = ["GateContext", "run_gate", "select_checks", "baseline_metrics"]


class GateContext:
    """What one check sees while evaluating: the executed cells."""

    def __init__(self, scale: GateScale, results: Mapping[str, CellResult]) -> None:
        self.scale = scale
        self._results = dict(results)

    def result(self, spec: CellSpec) -> CellResult:
        """The executed result of a declared cell (by content hash)."""
        try:
            return self._results[spec.content_hash]
        except KeyError:
            raise ConfigError(
                f"cell {spec.policy_name} @ {spec.qps:g} qps was not "
                "declared by this check's cells()"
            ) from None


def select_checks(only: Sequence[str] | None = None) -> list[GateCheck]:
    """The enabled checks, validating ``--only`` names.

    Without ``only`` every untimed check runs: a timed check judges wall
    clock, so it runs only when named and the default verdict stays
    deterministic.
    """
    if only is None:
        return [check for check in CHECKS.values() if not check.timed]
    unknown = sorted(set(only) - set(CHECKS))
    if unknown:
        raise ConfigError(
            f"unknown gate check(s) {unknown}; available: {sorted(CHECKS)}"
        )
    return [CHECKS[name] for name in CHECKS if name in set(only)]


def run_gate(
    mode: str = "fast",
    only: Sequence[str] | None = None,
    workers: int | None = None,
    cache: CacheArg = ENV_CACHE,
    baselines: Mapping[str, float] | None = None,
    baselines_path: str | None = None,
    perturb: Mapping[str, float] | None = None,
    progress: Callable[[ProgressEvent], None] | None = None,
) -> GateReport:
    """Execute the gate and return its :class:`GateReport`.

    Parameters
    ----------
    mode:
        ``"fast"`` (CI sizing) or ``"full"`` (paper-scale samples).
    only:
        Restrict to a subset of registered check names (the default is
        every untimed check).
    workers:
        Process-pool width for cell execution (None = the
        ``REPRO_BENCH_WORKERS`` / cpu-count default of the exec layer).
    cache:
        An explicit :class:`~repro.exec.cache.ResultCache`, ``None``
        for a guaranteed-cold run, or — when omitted — the exec layer's
        environment-selected cache (``REPRO_EXEC_CACHE=1``).
    baselines, baselines_path:
        Explicit baseline metrics, or a path to the baseline JSON
        (default ``benchmarks/baselines/gate_baseline.json``).  Missing
        baselines degrade relative bands to their absolute parts.
    perturb:
        ``{metric_id: factor}`` multiplicative perturbations applied to
        measured values before judgement — the self-test hook proving
        the gate actually fails when a number moves.
    """
    started = time.perf_counter()
    scale = scale_for_mode(mode)
    checks = select_checks(only)
    if baselines is None:
        baselines = load_baselines(baselines_path, mode=mode)

    # Union of every declared cell, first-declaration order, deduped
    # by content hash so shared cells simulate (and cache) once.
    cells: list[CellSpec] = []
    seen: set[str] = set()
    for check in checks:
        for spec in check.cells(scale):
            if spec.content_hash not in seen:
                seen.add(spec.content_hash)
                cells.append(spec)

    cells_from_cache = 0
    if cells:
        events: list[ProgressEvent] = []

        def record(event: ProgressEvent) -> None:
            events.append(event)
            if progress is not None:
                progress(event)

        results = run_sweep(
            cells, workers=workers, cache=cache, progress=record
        )
        cells_from_cache = sum(1 for e in events if e.from_cache)
        by_hash = {spec.content_hash: r for spec, r in zip(cells, results)}
    else:
        by_hash = {}

    ctx = GateContext(scale, by_hash)
    check_reports: list[CheckReport] = []
    for check in checks:
        check_started = time.perf_counter()
        try:
            measurements: list[Measurement] = check.evaluate(ctx)
        except Exception as exc:  # a broken check must not mask others
            check_reports.append(
                CheckReport(
                    name=check.name,
                    description=check.description,
                    paper_ref=check.paper_ref,
                    status="error",
                    wall_time_s=time.perf_counter() - check_started,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        evaluated: list[EvaluatedMeasurement] = [
            evaluate_measurement(m, baselines=baselines, perturb=perturb)
            for m in measurements
        ]
        status = "pass" if all(m.passed for m in evaluated) else "fail"
        check_reports.append(
            CheckReport(
                name=check.name,
                description=check.description,
                paper_ref=check.paper_ref,
                status=status,
                wall_time_s=time.perf_counter() - check_started,
                measurements=evaluated,
            )
        )

    return GateReport(
        checks=check_reports,
        total_wall_time_s=time.perf_counter() - started,
        cells_total=len(cells),
        cells_executed=len(cells) - cells_from_cache,
        cells_from_cache=cells_from_cache,
        header=artifact_header("repro.gate", REPORT_SCHEMA_VERSION, mode),
        baselines_used=bool(baselines),
    )


def baseline_metrics(report: GateReport) -> dict[str, float]:
    """Measured values of every ``baseline_key`` metric in a report.

    This is what ``--update-baselines`` persists: the check
    declarations opt metrics in, the report carries their fresh values.
    """
    return {
        m.metric: m.value
        for check_report in report.checks
        for m in check_report.measurements
        if m.baseline_key
    }
