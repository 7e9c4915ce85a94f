"""A1 — Algorithm 1: target-table construction.

Runs BUILDTARGETTABLE (greedy gradient descent over MeasureTail) on the
canonical workload at reduced scale, verifying that the search (a)
terminates far below the exhaustive-search cost bound, (b) never
accepts a worsening step, and (c) produces a table whose weighted tail
latency is no worse than its initialisation.  Also reports the shipped
table and the multi-start extension that crosses the coordinated-shift
valleys the single-start greedy cannot (see
``core/table_builder.py``).
"""

from conftest import BENCH_SEED, emit
from repro.config import TargetTableConfig
from repro.core.table_builder import build_target_table_multistart
from repro.core.target_table import TargetTable
from repro.experiments import DEFAULT_SEARCH_TARGET_TABLE
from repro.experiments.runner import (
    build_search_target_table,
    make_measure_tail,
    make_measure_tail_batch,
)
from repro.experiments.report import format_table

SEARCH_CONFIG = TargetTableConfig(
    load_grid=(0.0, 4.0, 10.0, 20.0),
    initial_target_ms=25.0,
    step_ms=10.0,
    measure_loads_qps=(150.0, 500.0, 800.0),
    measure_weights=(1.0, 1.0, 1.0),
    queries_per_measurement=4_000,
    max_iterations=12,
)


def test_algorithm1_search(benchmark, workload):
    # The per-iteration candidate measurements fan out across the exec
    # pool (workers=None resolves REPRO_BENCH_WORKERS / cpu count).
    result = benchmark.pedantic(
        lambda: build_search_target_table(
            workload, SEARCH_CONFIG, seed=BENCH_SEED, workers=None
        ),
        rounds=1,
        iterations=1,
    )
    rows = [
        [f"{d:g}", f"{e:g}"] for d, e in result.table.entries
    ]
    emit(
        "target_table_search",
        format_table(
            ["load (LongT threads)", "target E (ms)"],
            rows,
            title=(
                "Algorithm 1 - searched target table "
                f"(tail={result.tail_latency_ms:.1f} ms, "
                f"{result.measurements} measurements, "
                f"{result.iterations} iterations)"
            ),
        )
        + "\n\nShipped table: "
        + repr(DEFAULT_SEARCH_TARGET_TABLE),
    )

    m = len(SEARCH_CONFIG.load_grid)
    # Complexity bound of Section 3.3: measurements <= 1 + m * (iters+1).
    assert result.measurements <= 1 + m * (result.iterations + 1)
    # Greedy descent: the history trace is strictly improving.
    tails = [h[2] for h in result.history]
    assert all(b < a for a, b in zip(tails, tails[1:]))
    # The search never worsens its initialisation.
    initial = TargetTable.uniform(
        SEARCH_CONFIG.load_grid, SEARCH_CONFIG.initial_target_ms
    )
    measure = make_measure_tail(workload, SEARCH_CONFIG, seed=BENCH_SEED)
    assert result.tail_latency_ms <= measure(initial) + 1e-9


def test_multistart_extension(benchmark, workload):
    """The multi-start wrapper finds a table at least as good as any
    single flat start (crossing coordinated-shift valleys)."""
    measure = make_measure_tail(workload, SEARCH_CONFIG, seed=BENCH_SEED)
    measure_batch = make_measure_tail_batch(
        workload, SEARCH_CONFIG, seed=BENCH_SEED
    )

    result = benchmark.pedantic(
        lambda: build_target_table_multistart(
            SEARCH_CONFIG.load_grid,
            [25.0, 45.0],
            SEARCH_CONFIG.step_ms,
            measure_batch,
            max_iterations=8,
        ),
        rounds=1,
        iterations=1,
    )
    flat25 = measure(TargetTable.uniform(SEARCH_CONFIG.load_grid, 25.0))
    flat45 = measure(TargetTable.uniform(SEARCH_CONFIG.load_grid, 45.0))
    emit(
        "target_table_multistart",
        format_table(
            ["candidate", "weighted tail (ms)"],
            [
                ["flat 25 ms", round(flat25, 1)],
                ["flat 45 ms", round(flat45, 1)],
                ["multi-start result", round(result.tail_latency_ms, 1)],
            ],
            title="Multi-start Algorithm 1 (extension)",
        ),
    )
    assert result.tail_latency_ms <= min(flat25, flat45) + 1e-9
