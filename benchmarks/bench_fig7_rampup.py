"""F7 — Figure 7: TPC vs RampUp with 5/10/20 ms intervals, P99.

Expected shape (Section 4.4): RampUp's small intervals win at light
load but pay heavy parallelism overhead at high load; large intervals
defer acceleration and lose everywhere to early, predicted
parallelism.  TPC beats the *best* RampUp interval at every load.
"""

from conftest import BENCH_SEED, bench_queries, emit, exec_kwargs, qps_grid
from repro.config import PolicyConfig
from repro.experiments import run_load_sweep
from repro.experiments.report import format_table

INTERVALS = (5.0, 10.0, 20.0)


def _run(workload, search_table):
    grid = qps_grid()
    tpc = run_load_sweep(
        workload, ["TPC"], grid,
        n_requests=bench_queries(), seed=BENCH_SEED,
        target_table=search_table,
        **exec_kwargs(),
    )
    series = {"TPC": [r.summary.p99_ms for r in tpc["TPC"]]}
    for interval in INTERVALS:
        sweep = run_load_sweep(
            workload, ["RampUp"], grid,
            n_requests=bench_queries(), seed=BENCH_SEED,
            policy_config=PolicyConfig(rampup_interval_ms=interval),
            **exec_kwargs(),
        )
        series[f"RampUp-{interval:g}ms"] = [r.summary.p99_ms for r in sweep["RampUp"]]
    return series


def test_fig7_tpc_vs_rampup(benchmark, workload, search_table):
    series = benchmark.pedantic(
        lambda: _run(workload, search_table), rounds=1, iterations=1
    )
    grid = qps_grid()
    names = list(series)
    rows = [
        [int(qps)] + [round(series[n][i], 1) for n in names]
        for i, qps in enumerate(grid)
    ]
    emit(
        "fig7_rampup",
        format_table(
            ["QPS", *names], rows,
            title="Figure 7 - P99 latency (ms): TPC vs RampUp",
        ),
    )

    for i in range(len(grid)):
        best_rampup = min(series[f"RampUp-{iv:g}ms"][i] for iv in INTERVALS)
        # TPC beats even the best interval at (almost) every load.
        assert series["TPC"][i] <= best_rampup * 1.08, f"load index {i}"
    # Aggressive ramping (5 ms) visibly overtakes lazy ramping (20 ms)
    # at light load and the ordering flips under pressure.
    assert series["RampUp-5ms"][0] < series["RampUp-20ms"][0]
