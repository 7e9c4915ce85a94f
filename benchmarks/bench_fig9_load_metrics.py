"""F9 — Figure 9: P99 of TPC under different system-load metrics.

Expected shape (Section 4.6): the number of active threads of long
queries (LongT) is the best instantaneous-load proxy; counting all
threads (AllT) is close; the sampled, EMA-smoothed CPU utilisation
(CpuUtil) is a lagging moving average and performs worst, degrading
further as load grows.
"""

from conftest import BENCH_SEED, bench_queries, emit, exec_kwargs, qps_grid
from repro.experiments import run_load_sweep
from repro.experiments.report import format_table
from repro.sim.load import LoadMetric

METRICS = {
    "LongT": LoadMetric.LONG_THREADS,
    "AllT": LoadMetric.ALL_THREADS,
    "CpuUtil": LoadMetric.CPU_UTIL,
}


def _run(workload, search_table):
    grid = qps_grid()
    series = {}
    for name, metric in METRICS.items():
        sweep = run_load_sweep(
            workload, ["TPC"], grid,
            n_requests=bench_queries(), seed=BENCH_SEED,
            target_table=search_table, load_metric=metric,
            **exec_kwargs(),
        )
        series[name] = [r.summary.p99_ms for r in sweep["TPC"]]
    return series


def test_fig9_load_metrics(benchmark, workload, search_table):
    series = benchmark.pedantic(
        lambda: _run(workload, search_table), rounds=1, iterations=1
    )
    grid = qps_grid()
    rows = [
        [int(qps)] + [round(series[m][i], 1) for m in METRICS]
        for i, qps in enumerate(grid)
    ]
    emit(
        "fig9_load_metrics",
        format_table(
            ["QPS", *METRICS.keys()],
            rows,
            title="Figure 9 - TPC P99 (ms) by load metric",
        ),
    )

    import numpy as np

    mean = {m: float(np.mean(series[m])) for m in METRICS}
    # Thread-count metrics beat the lagging CPU counter on average.
    assert mean["LongT"] <= mean["CpuUtil"] * 1.02
    assert mean["AllT"] <= mean["CpuUtil"] * 1.05
    # LongT is the best (or tied-best) metric overall.
    assert mean["LongT"] <= min(mean.values()) * 1.03
