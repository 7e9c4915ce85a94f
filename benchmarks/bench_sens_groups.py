"""S2 — Section 4.6 sensitivity: number of efficiency groups.

The paper moves from 3 to 6 parallelism-efficiency groups (halving
each group) and observes at most 0.65 % improvement across loads —
neighbouring groups' speedup profiles are too similar to matter.
A single-group book (treating all queries alike) does cost latency.
"""

import numpy as np

from conftest import emit, qps_grid, run_tpc_variant
from repro.core.speedup import SpeedupBook
from repro.experiments.report import format_table
from repro.policies.tpc import TPCPolicy


def _sweep(workload, search_table, book):
    """TPC P99 per load with its own speedup book (not spec data)."""
    return [
        run_tpc_variant(workload, qps, TPCPolicy(search_table, book)).p99_ms
        for qps in qps_grid()
    ]


def test_group_count_sensitivity(benchmark, workload, search_table):
    def run():
        three = workload.speedup_book
        six = three.split_groups()
        # Single group: everything uses the average profile.
        from repro.policies.ap import average_profile

        avg = average_profile(three, list(workload.group_weights))
        one = SpeedupBook([avg] * 3, three.bounds_ms)
        return {
            "1 group": _sweep(workload, search_table, one),
            "3 groups": _sweep(workload, search_table, three),
            "6 groups": _sweep(workload, search_table, six),
        }

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    grid = qps_grid()
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
