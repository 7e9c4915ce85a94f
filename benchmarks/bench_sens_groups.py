"""S2 — Section 4.6 sensitivity: number of efficiency groups.

The paper moves from 3 to 6 parallelism-efficiency groups (halving
each group) and observes at most 0.65 % improvement across loads —
neighbouring groups' speedup profiles are too similar to matter.
A single-group book (treating all queries alike) does cost latency.

The group count is workload spec data: each variant rebuilds the
canonical workload with other group bounds, so every group's profile
is averaged from its own measured queries.
"""

import dataclasses

import numpy as np

from conftest import bench_cell, emit, exec_kwargs, qps_grid
from repro.exec import run_sweep
from repro.experiments import default_workload_spec
from repro.experiments.report import format_table

#: Group bounds (ms) per variant; ``None`` keeps the canonical three
#: groups, and the six-group bounds halve each of them.
GROUP_BOUNDS = {
    "1 group": (),
    "3 groups": None,
    "6 groups": (15.0, 30.0, 55.0, 80.0, 160.0),
}


def test_group_count_sensitivity(benchmark, search_table):
    grid = qps_grid()

    def run():
        workloads = [
            dataclasses.replace(default_workload_spec(), group_bounds_ms=bounds)
            for bounds in GROUP_BOUNDS.values()
        ]
        cells = [
            bench_cell("TPC", qps, workload=w, target_table=search_table)
            for w in workloads
            for qps in grid
        ]
        results = iter(run_sweep(cells, **exec_kwargs()))
        return {
            label: [next(results).summary.p99_ms for _ in grid]
            for label in GROUP_BOUNDS
        }

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [int(qps)] + [round(series[k][i], 1) for k in series]
        for i, qps in enumerate(grid)
    ]
    emit(
        "sens_groups",
        format_table(
            ["QPS", *series.keys()],
            rows,
            title="Section 4.6 - TPC P99 (ms) by efficiency-group count",
        ),
    )

    mean = {k: float(np.mean(v)) for k, v in series.items()}
    # 3 -> 6 groups: negligible change (paper: <= 0.65 %).
    assert abs(mean["6 groups"] / mean["3 groups"] - 1.0) < 0.05
    # 1 -> 3 groups: grouping by demand does matter.
    assert mean["3 groups"] <= mean["1 group"] * 1.02
