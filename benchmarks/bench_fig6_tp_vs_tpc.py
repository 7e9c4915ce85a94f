"""F6 — Figure 6: TP (no correction) vs TPC, P99 and P99.9.

Expected shape (Section 4.3): the two match at P99 (prediction is
accurate enough there), while dynamic correction buys TPC a visibly
lower P99.9 — the paper reports 40-65 ms.  Correction also lifts the
fraction of long queries reaching high degrees.
"""

from conftest import degrees_by_class, emit, qps_grid
from repro.experiments.report import format_table


def test_fig6_tp_vs_tpc(benchmark, main_sweep):
    sweep = benchmark.pedantic(lambda: main_sweep, rounds=1, iterations=1)
    grid = qps_grid()
    rows = [
        [
            int(qps),
            round(sweep["TP"][i].summary.p99_ms, 1),
            round(sweep["TPC"][i].summary.p99_ms, 1),
            round(sweep["TP"][i].summary.p999_ms, 1),
            round(sweep["TPC"][i].summary.p999_ms, 1),
        ]
        for i, qps in enumerate(grid)
    ]
    emit(
        "fig6_tp_vs_tpc",
        format_table(
            ["QPS", "TP p99", "TPC p99", "TP p99.9", "TPC p99.9"],
            rows,
            title="Figure 6 - contribution of dynamic correction",
        ),
    )

    p99_gaps = []
    p999_gaps = []
    for i in range(len(grid)):
        p99_gaps.append(sweep["TP"][i].summary.p99_ms - sweep["TPC"][i].summary.p99_ms)
        p999_gaps.append(sweep["TP"][i].summary.p999_ms - sweep["TPC"][i].summary.p999_ms)
        # TPC never loses to TP (correction can only help).
        assert sweep["TPC"][i].summary.p999_ms <= sweep["TP"][i].summary.p999_ms * 1.05
    # P99.9 improvement is substantial somewhere in the load range
    # (paper: 40-65 ms).
    assert max(p999_gaps) > 15.0
    # P99 improvement is comparatively small: the policies are nearly
    # the same below the misprediction percentile.
    assert max(p99_gaps) < max(p999_gaps)


def test_correction_raises_long_query_degrees(benchmark, main_sweep):
    """Section 4.3: correction increases the share of long queries that
    reach high (>3) parallelism degrees."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    grid = qps_grid()
    mid = len(grid) // 2
    tp = degrees_by_class(main_sweep["TP"][mid])
    tpc = degrees_by_class(main_sweep["TPC"][mid])
    high_tp = sum(tp["long"][3:])
    high_tpc = sum(tpc["long"][3:])
    assert high_tpc >= high_tp
