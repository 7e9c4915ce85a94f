"""S1 — Section 4.6 sensitivity: prediction accuracy.

The paper mimics a perfect predictor with pre-collected sequential
times and finds: TPC(real) within 4.0 % of TPC(perfect) at P99 and
7.8 % at P99.9 on average across loads, while TP (no correction) is
44.1 % worse than the perfect bound — dynamic correction absorbs
prediction error.
"""

import numpy as np

from conftest import bench_cell, emit, exec_kwargs, qps_grid
from repro.exec import run_sweep
from repro.experiments.report import format_table

SERIES = {
    "TPC(real)": ("TPC", "model"),
    "TPC(perfect)": ("TPC", "perfect"),
    "TP(real)": ("TP", "model"),
    "TP(perfect)": ("TP", "perfect"),
}


def test_predictor_accuracy_sensitivity(benchmark, search_table):
    def run():
        grid = qps_grid()
        cells = [
            bench_cell(
                policy, qps, target_table=search_table, prediction=prediction
            )
            for policy, prediction in SERIES.values()
            for qps in grid
        ]
        results = run_sweep(cells, **exec_kwargs())
        return {
            name: results[k * len(grid) : (k + 1) * len(grid)]
            for k, name in enumerate(SERIES)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    grid = qps_grid()
    rows = [
        [int(qps)]
        + [round(results[k][i].summary.p99_ms, 1) for k in results]
        + [round(results[k][i].summary.p999_ms, 1) for k in results]
        for i, qps in enumerate(grid)
    ]
    emit(
        "sens_predictor",
        format_table(
            ["QPS"]
            + [f"{k} p99" for k in results]
            + [f"{k} p99.9" for k in results],
            rows,
            title="Section 4.6 - real vs perfect predictor",
        ),
    )

    def mean_gap(a, b, attr):
        return float(
            np.mean(
                [
                    getattr(x.summary, attr) / getattr(y.summary, attr) - 1.0
                    for x, y in zip(results[a], results[b])
                ]
            )
        )

    # TPC with the real predictor stays close to the perfect bound
    # (paper: 4.0 % at P99, 7.8 % at P99.9).
    assert mean_gap("TPC(real)", "TPC(perfect)", "p99_ms") < 0.15
    assert mean_gap("TPC(real)", "TPC(perfect)", "p999_ms") < 0.25
    # Without correction the same prediction errors cost far more at
    # the very high tail (paper: 44.1 %).
    tp_gap = mean_gap("TP(real)", "TP(perfect)", "p999_ms")
    tpc_gap = mean_gap("TPC(real)", "TPC(perfect)", "p999_ms")
    assert tp_gap > tpc_gap * 1.5


def test_oracle_noise_sweep(benchmark, search_table):
    """Extension: degrade the predictor smoothly and watch TPC's P99.9
    stay flat (correction compensates) while TP's grows."""
    sigmas = (0.0, 0.25, 0.5, 1.0)
    qps = 450.0

    policies = ("TP", "TPC")

    def run():
        cells = [
            bench_cell(
                policy, qps, target_table=search_table,
                prediction="oracle", oracle_sigma=s,
            )
            for policy in policies
            for s in sigmas
        ]
        p999 = [r.summary.p999_ms for r in run_sweep(cells, **exec_kwargs())]
        return {
            policy: p999[k * len(sigmas) : (k + 1) * len(sigmas)]
            for k, policy in enumerate(policies)
        }

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [s, round(table["TP"][i], 1), round(table["TPC"][i], 1)]
        for i, s in enumerate(sigmas)
    ]
    emit(
        "sens_oracle_noise",
        format_table(
            ["oracle sigma", "TP p99.9", "TPC p99.9"],
            rows,
            title="Extension - P99.9 vs predictor noise @450 QPS",
        ),
    )
    # TP deteriorates with noise much faster than TPC.
    tp_growth = table["TP"][-1] / table["TP"][0]
    tpc_growth = table["TPC"][-1] / table["TPC"][0]
    assert tp_growth > tpc_growth
