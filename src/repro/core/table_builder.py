"""Target-table construction (Section 3.3, Algorithm 1).

``build_target_table`` is a faithful implementation of
BUILDTARGETTABLE: starting from an initial table whose targets are all
set to the smallest achievable value, it repeatedly bumps one entry's
target by the step size, measures the resulting weighted tail latency
with an injected ``measure_tail`` procedure, keeps the single bump that
helps most, and stops at the first iteration where no bump helps.  The
search is greedy gradient descent: at most ``m * E_max / step``
measurements instead of exhaustive search's ``(E_max / step) ** m``.

``measure_tail`` is experiment-dependent (it runs a predefined workload
across the production load range and returns a weighted sum of tail
latencies), so it is passed in as a callable.  It is batched: it takes
a sequence of candidate tables and returns one tail latency per table,
so the independent candidates of one greedy iteration can be measured
concurrently.  The standard search-workload implementation is
:func:`repro.experiments.runner.make_measure_tail_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import TargetTableError
from .target_table import TargetTable

__all__ = ["build_target_table", "TableSearchResult"]


@dataclass(frozen=True)
class TableSearchResult:
    """Outcome of one BUILDTARGETTABLE run."""

    table: TargetTable
    tail_latency_ms: float
    iterations: int
    measurements: int
    #: (iteration, bumped_index, tail_latency) trace of accepted bumps.
    history: tuple[tuple[int, int, float], ...]


#: Batched MeasureTail: candidate tables in, one tail latency per table out.
MeasureTail = Callable[[Sequence[TargetTable]], Sequence[float]]


def _measure(measure_tail: MeasureTail, tables: list[TargetTable]) -> list[float]:
    latencies = [float(v) for v in measure_tail(tables)]
    if len(latencies) != len(tables):
        raise TargetTableError(
            f"measure_tail returned {len(latencies)} values for "
            f"{len(tables)} tables"
        )
    return latencies


def build_target_table(
    initial_table: TargetTable,
    step_ms: float,
    measure_tail: MeasureTail,
    max_iterations: int = 200,
    max_target_ms: float = 1_000.0,
) -> TableSearchResult:
    """Algorithm 1: greedy gradient-descent search for target values.

    Parameters
    ----------
    initial_table:
        Table with small initial targets (e.g. the unloaded, fully
        parallelized latency — the smallest target ever achievable).
    step_ms:
        Search step size delta (the paper uses 1 ms, the smallest unit
        of its tail-latency measurements).
    measure_tail:
        Experimental procedure: runs the predefined experiment with each
        candidate table and returns their weighted tail-latency sums, in
        order.  One call measures all candidates of an iteration, so an
        implementation backed by :mod:`repro.exec` can fan them out
        across worker processes without changing the result.
    max_iterations:
        Safety bound on while-loop iterations (the paper's bound is
        ``E_max / delta``).
    max_target_ms:
        Targets are never bumped beyond this ceiling.

    Returns
    -------
    :class:`TableSearchResult` with the final table (the first local
    minimum along the greedy path), its measured tail latency, and
    search statistics.
    """
    if step_ms <= 0:
        raise TargetTableError(f"step_ms must be > 0, got {step_ms}")
    if max_iterations < 1:
        raise TargetTableError("max_iterations must be >= 1")

    table = initial_table
    m = len(table)
    current_latency = _measure(measure_tail, [table])[0]
    measurements = 1
    history: list[tuple[int, int, float]] = []

    for iteration in range(max_iterations):
        best_index = -1
        best_latency = current_latency
        bumpable = [
            i for i in range(m) if table.targets[i] + step_ms <= max_target_ms
        ]
        candidates = [table.bumped(i, step_ms) for i in bumpable]
        latencies = _measure(measure_tail, candidates) if candidates else []
        measurements += len(candidates)
        for i, latency in zip(bumpable, latencies):
            if latency < best_latency - 1e-12:
                best_latency = latency
                best_index = i
        if best_index < 0:
            # No bump improves the objective: the current table is the
            # final target table (Algorithm 1 line 15).
            return TableSearchResult(
                table=table,
                tail_latency_ms=current_latency,
                iterations=iteration,
                measurements=measurements,
                history=tuple(history),
            )
        table = table.bumped(best_index, step_ms)
        current_latency = best_latency
        history.append((iteration, best_index, best_latency))

    return TableSearchResult(
        table=table,
        tail_latency_ms=current_latency,
        iterations=max_iterations,
        measurements=measurements,
        history=tuple(history),
    )


def build_target_table_multistart(
    load_grid: Sequence[float],
    initial_levels_ms: Sequence[float],
    step_ms: float,
    measure_tail: MeasureTail,
    max_iterations: int = 200,
    max_target_ms: float = 1_000.0,
) -> TableSearchResult:
    """Algorithm 1 restarted from several flat initial levels.

    The greedy inner search only *increases* one target at a time, so a
    coordinated shift of the whole table (e.g. flat-25 -> flat-40) is
    invisible to it: each single bump makes things worse even though
    the shifted table is better.  Restarting from a few flat levels and
    keeping the best final table crosses those valleys.  This is a
    practical extension of the paper's procedure; the inner loop is the
    published Algorithm 1 unchanged.
    """
    if not initial_levels_ms:
        raise TargetTableError("need at least one initial level")
    best: TableSearchResult | None = None
    total_measurements = 0
    for level in initial_levels_ms:
        initial = TargetTable.uniform(load_grid, level)
        result = build_target_table(
            initial, step_ms, measure_tail, max_iterations, max_target_ms
        )
        total_measurements += result.measurements
        if best is None or result.tail_latency_ms < best.tail_latency_ms:
            best = result
    assert best is not None
    return TableSearchResult(
        table=best.table,
        tail_latency_ms=best.tail_latency_ms,
        iterations=best.iterations,
        measurements=total_measurements,
        history=best.history,
    )

