"""F4 — Figure 4: 99th-percentile latency vs load, five policies.

Expected shape (Section 4.2): TPC and Pred hold ~100 ms P99 through
moderate/heavy load by parallelizing long queries only; AP and
WQ-Linear degrade with load because they parallelize indiscriminately;
Sequential is worst.  TPC additionally beats Pred at low-to-moderate
load by adapting its parallelism to spare capacity.
"""

from conftest import emit, qps_grid
from repro.experiments.report import format_table

POLICIES = ("Sequential", "WQ-Linear", "AP", "Pred", "TPC")


def test_fig4_p99_vs_load(benchmark, main_sweep):
    sweep = benchmark.pedantic(lambda: main_sweep, rounds=1, iterations=1)
    grid = qps_grid()
    rows = [
        [int(qps)] + [round(sweep[p][i].summary.p99_ms, 1) for p in POLICIES]
        for i, qps in enumerate(grid)
    ]
    emit(
        "fig4_p99",
        format_table(
            ["QPS", *POLICIES],
            rows,
            title="Figure 4 - P99 latency (ms) vs load",
        ),
    )

    mid = len(grid) // 2  # a moderate-load index
    # TPC within the best prior work at every load (small tolerance).
    for i in range(len(grid)):
        best_prior = min(sweep[p][i].summary.p99_ms for p in POLICIES[:-1])
        assert sweep["TPC"][i].summary.p99_ms <= best_prior * 1.10, f"load index {i}"
    # Load-ignoring Pred loses to TPC at low/moderate load.
    assert sweep["TPC"][0].summary.p99_ms < sweep["Pred"][0].summary.p99_ms
    assert sweep["TPC"][mid].summary.p99_ms < sweep["Pred"][mid].summary.p99_ms
    # Prediction-free policies degrade sharply by the top load.
    top = len(grid) - 1
    assert sweep["AP"][top].summary.p99_ms > sweep["TPC"][top].summary.p99_ms * 1.3
    # Sequential is far worse than TPC everywhere.
    for i in range(len(grid)):
        assert sweep["Sequential"][i].summary.p99_ms > sweep["TPC"][i].summary.p99_ms * 1.5
