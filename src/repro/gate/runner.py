"""Gate execution: dedupe cells across checks, run, judge, report.

:func:`run_gate` is the single entry point behind the CLI and the
tests.  It collects every cell the enabled checks declare, dedupes
them by content hash, executes the union through
:func:`repro.exec.run_sweep` (process pool + on-disk cache — the
cache is *on* by default for the gate, unlike the benchmarks, because
a warm gate must be near-free), then hands each check a
:class:`GateContext` to reduce its results to banded measurements.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Sequence

from ..artifacts import artifact_header
from ..errors import ConfigError
from ..exec.cache import ResultCache
from ..exec.pool import ProgressEvent, run_sweep
from ..exec.spec import CellResult, CellSpec
from .bands import EvaluatedMeasurement, Measurement, evaluate_measurement
from .baselines import load_baselines
from .checks import CHECKS, GateCheck, GateScale, scale_for_mode
from .report import REPORT_SCHEMA_VERSION, CheckReport, GateReport

__all__ = ["GateContext", "run_gate", "select_checks", "baseline_metrics"]


class GateContext:
    """What one check sees while evaluating: results, cache, workload."""

    def __init__(
        self,
        scale: GateScale,
        results: Mapping[str, CellResult],
        cache: ResultCache | None = None,
        workers: int | None = 1,
    ) -> None:
        self.scale = scale
        self._results = dict(results)
        self.cache = cache
        self.workers = workers
        self._workload: Any = None
        self.payload_hits = 0

    def result(self, spec: CellSpec) -> CellResult:
        """The executed result of a declared cell (by content hash)."""
        try:
            return self._results[spec.content_hash]
        except KeyError:
            raise ConfigError(
                f"cell {spec.policy_name} @ {spec.qps:g} qps was not "
                "declared by this check's cells()"
            ) from None

    def workload(self) -> Any:
        """The built canonical workload (lazy — only paid on cache miss).

        Routed through the exec layer's per-process workload memo, so
        a cold gate run that already expanded cells inline reuses the
        copy those cells built instead of building a second one.
        """
        if self._workload is None:
            from ..exec.pool import memoised_workload
            from ..experiments.scenarios import default_workload_spec

            self._workload = memoised_workload(default_workload_spec())
        return self._workload

    def memoise_payload(
        self,
        key: str,
        compute: Callable[[], Any],
        expect: type | None = None,
    ) -> Any:
        """Payload-cache a non-cell computation (e.g. a cluster run).

        ``expect`` guards against stale entries written by an older
        gate version: a payload of the wrong type is recomputed.
        """
        if self.cache is not None:
            payload = self.cache.get_payload(key)
            if payload is not None and (
                expect is None or isinstance(payload, expect)
            ):
                self.payload_hits += 1
                return payload
        payload = compute()
        if self.cache is not None:
            self.cache.put_payload(key, payload)
        return payload


def select_checks(only: Sequence[str] | None = None) -> list[GateCheck]:
    """The enabled checks, validating ``--only`` names."""
    if only is None:
        return list(CHECKS.values())
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
    cache: ResultCache | None = None,
    use_cache: bool = True,
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
        Restrict to a subset of registered check names.
    workers:
        Process-pool width for cell execution (None = the
        ``REPRO_BENCH_WORKERS`` / cpu-count default of the exec layer).
    cache, use_cache:
        An explicit :class:`ResultCache`, or — when ``use_cache`` is
        true and no cache is given — the default on-disk cache.  Pass
        ``use_cache=False`` for a guaranteed-cold run.
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
    if cache is None and use_cache:
        cache = ResultCache()
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

    ctx = GateContext(scale, by_hash, cache=cache, workers=workers)
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
        payload_hits=ctx.payload_hits,
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
