"""W1 — Section 2 workload characterisation.

Regenerates the service-demand statistics the paper reports for the
production Bing workload: mean 13.47 ms, >85 % of queries under 15 ms,
~4 % over 80 ms, 99th-percentile demand ~200 ms (15x mean, 56x median),
and the predictor operating point of Section 2.5 (recall 0.86,
precision 0.91, mispredicted-long ~0.56 % of all queries).
"""

from conftest import emit
from repro.experiments.report import format_table

PAPER = {
    "mean_ms": 13.47,
    "median_ms": 3.57,
    "p99_ms": 200.0,
    "short_fraction(<15ms)": 0.85,
    "long_fraction(>80ms)": 0.04,
    "p99/median": 56.0,
}


def test_workload_statistics(benchmark, workload):
    stats = benchmark.pedantic(
        lambda: workload.statistics, rounds=1, iterations=1
    )
    row = {
        "mean_ms": stats.mean_ms,
        "median_ms": stats.median_ms,
        "p99_ms": stats.p99_ms,
        "max_ms": stats.max_ms,
        "short_fraction(<15ms)": stats.short_fraction,
        "long_fraction(>80ms)": stats.long_fraction,
        "p99/mean": stats.p99_over_mean,
        "p99/median": stats.p99_over_median,
    }
    rows = [
        [key, PAPER.get(key, float("nan")), round(value, 3)]
        for key, value in row.items()
    ]
    emit(
        "workload_stats",
        format_table(
            ["statistic", "paper", "reproduced"],
            rows,
            title="Section 2 - service demand distribution",
        ),
    )
    assert abs(row["mean_ms"] - 13.47) < 0.05
    assert row["short_fraction(<15ms)"] > 0.80
    assert 0.02 < row["long_fraction(>80ms)"] < 0.08
    assert row["p99_ms"] > 10 * row["mean_ms"]


def test_predictor_operating_point(benchmark, workload):
    report = benchmark.pedantic(
        lambda: workload.predictor_report, rounds=1, iterations=1
    )
    mispred = (1 - report.recall) * workload.statistics.long_fraction
    rows = [
        ["L1 error (ms)", 14.0, round(report.l1_error_ms, 2)],
        ["precision", 0.91, round(report.precision, 3)],
        ["recall", 0.86, round(report.recall, 3)],
        ["mispredicted long (% of all)", 0.56, round(100 * mispred, 2)],
    ]
    emit(
        "predictor_operating_point",
        format_table(
            ["metric", "paper", "reproduced"],
            rows,
            title="Section 2.5 - predictor accuracy",
        ),
    )
    assert report.recall > 0.8
    assert report.precision > 0.8
    assert 0.2 < 100 * mispred < 1.2
