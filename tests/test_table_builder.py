"""Tests for Algorithm 1 (BuildTargetTable) and its extensions."""

import pytest

from repro.core.table_builder import (
    build_target_table,
    build_target_table_multistart,
)
from repro.core.target_table import TargetTable
from repro.errors import TargetTableError


def batched(objective):
    """Lift a per-table objective to the batched MeasureTail signature."""
    return lambda tables: [objective(t) for t in tables]


def quadratic_objective(optimum: dict[int, float]):
    """A synthetic MeasureTail: tail = sum of squared distances of each
    target from a per-entry optimum (plus a floor)."""

    def measure(table: TargetTable) -> float:
        return 100.0 + sum(
            (table.targets[i] - opt) ** 2 for i, opt in optimum.items()
        )

    return batched(measure)


class TestBuildTargetTable:
    def test_converges_to_separable_optimum(self):
        initial = TargetTable.uniform([0, 4, 8], 20.0)
        measure = quadratic_objective({0: 30.0, 1: 40.0, 2: 50.0})
        result = build_target_table(initial, 5.0, measure)
        assert result.table.targets == (30.0, 40.0, 50.0)

    def test_stops_at_first_local_minimum(self):
        initial = TargetTable.uniform([0], 50.0)
        measure = quadratic_objective({0: 40.0})  # optimum is BELOW start
        result = build_target_table(initial, 5.0, measure)
        # Bumps only increase targets, so the search cannot move down.
        assert result.table.targets == (50.0,)
        assert result.iterations == 0

    def test_measurement_count_bounded(self):
        initial = TargetTable.uniform([0, 4], 20.0)
        calls = []

        def measure(table):
            calls.append(table)
            return 100.0 + sum((t - 40.0) ** 2 for t in table.targets)

        result = build_target_table(initial, 10.0, batched(measure))
        # 1 initial + (m bumps per iteration) * (iterations + final).
        assert result.measurements == len(calls)
        assert result.measurements <= 1 + 2 * (result.iterations + 1)

    def test_history_records_accepted_bumps(self):
        initial = TargetTable.uniform([0], 20.0)
        measure = quadratic_objective({0: 40.0})
        result = build_target_table(initial, 10.0, measure)
        assert len(result.history) == result.iterations == 2
        assert [h[1] for h in result.history] == [0, 0]

    def test_max_iterations_bounds_search(self):
        initial = TargetTable.uniform([0], 0.001)

        def always_improving(table):
            return 1000.0 - table.targets[0]  # monotone: never converges

        result = build_target_table(
            initial, 1.0, batched(always_improving), max_iterations=7
        )
        assert result.iterations == 7

    def test_max_target_ceiling_respected(self):
        initial = TargetTable.uniform([0], 90.0)

        def always_improving(table):
            return 1000.0 - table.targets[0]

        result = build_target_table(
            initial, 10.0, batched(always_improving), max_target_ms=100.0
        )
        assert result.table.targets[0] <= 100.0

    def test_rejects_bad_step(self):
        with pytest.raises(TargetTableError):
            build_target_table(
                TargetTable.uniform([0], 10.0), 0.0, batched(lambda t: 1.0)
            )

    def test_rejects_wrong_batch_length(self):
        with pytest.raises(TargetTableError, match="returned 2 values"):
            build_target_table(
                TargetTable.uniform([0], 10.0), 5.0, lambda tables: [1.0, 2.0]
            )


class TestMultistart:
    def test_crosses_coordination_valleys(self):
        """A coupled objective where single bumps from level 20 fail but
        a flat level 40 is optimal — multistart must find it."""

        def measure(table: TargetTable) -> float:
            spread = max(table.targets) - min(table.targets)
            centre = sum(table.targets) / len(table.targets)
            return 100.0 + 50.0 * spread + (centre - 40.0) ** 2

        grid = [0, 4, 8]
        single = build_target_table(
            TargetTable.uniform(grid, 20.0), 5.0, batched(measure)
        )
        multi = build_target_table_multistart(
            grid, [20.0, 30.0, 40.0], 5.0, batched(measure)
        )
        assert multi.tail_latency_ms < single.tail_latency_ms
        assert multi.table.targets == (40.0, 40.0, 40.0)

    def test_measurements_accumulate_across_starts(self):
        measure = quadratic_objective({0: 25.0})
        result = build_target_table_multistart([0], [20.0, 25.0], 5.0, measure)
        assert result.measurements > 2

    def test_rejects_empty_levels(self):
        with pytest.raises(TargetTableError):
            build_target_table_multistart([0], [], 5.0, batched(lambda t: 1.0))

