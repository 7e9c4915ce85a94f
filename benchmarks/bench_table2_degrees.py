"""T2 — Table 2: parallelism-degree distribution at 150 and 600 QPS.

Expected shape: TPC runs nearly all short queries sequentially and
gives long queries high degrees (98 % at 6T when idle, still mostly
high degrees at 600 QPS); AP gives short and long queries the same
degree and collapses toward 1-2T at 600 QPS; Pred is load-insensitive
(fixed 3T for predicted-long at every load, ~18.6 % of long queries
mispredicted to 1T).
"""

from conftest import bench_cell, degrees_by_class, emit, exec_kwargs
from repro.exec import run_sweep
from repro.experiments.report import format_table

LOADS = (150.0, 600.0)
POLICIES = ("TPC", "AP", "Pred")


def _distribution_rows(search_table):
    keys = [(qps, policy) for qps in LOADS for policy in POLICIES]
    cells = [
        bench_cell(policy, qps, target_table=search_table)
        for qps, policy in keys
    ]
    results = dict(zip(keys, run_sweep(cells, **exec_kwargs())))
    rows = []
    for (qps, policy), result in results.items():
        dist = degrees_by_class(result)
        for group in ("short", "long"):
            rows.append(
                [int(qps), policy, group] + [round(x, 1) for x in dist[group]]
            )
    return rows, results


def test_table2_degree_distribution(benchmark, search_table):
    rows, results = benchmark.pedantic(
        lambda: _distribution_rows(search_table),
        rounds=1,
        iterations=1,
    )
    emit(
        "table2_degrees",
        format_table(
            ["QPS", "policy", "group", "1T", "2T", "3T", "4T", "5T", "6T"],
            rows,
            title="Table 2 - parallelism degree distribution (%)",
        ),
    )

    def dist(qps, policy):
        return degrees_by_class(results[(qps, policy)])

    # TPC: short queries almost always sequential at both loads.
    assert dist(150, "TPC")["short"][0] > 85.0
    assert dist(600, "TPC")["short"][0] > 85.0
    # TPC: long queries predominantly at high degrees when idle.
    assert sum(dist(150, "TPC")["long"][3:]) > 60.0
    # AP: same degree for short and long (no per-query information).
    ap150 = degrees_by_class(results[(150, "AP")], use_max_degree=False)
    for s, l in zip(ap150["short"], ap150["long"]):
        assert abs(s - l) < 12.0
    # AP: degrees collapse at 600 QPS versus 150 QPS.
    ap600 = degrees_by_class(results[(600, "AP")], use_max_degree=False)
    mean150 = sum((i + 1) * p for i, p in enumerate(ap150["long"])) / 100
    mean600 = sum((i + 1) * p for i, p in enumerate(ap600["long"])) / 100
    assert mean600 < mean150
    # Pred: load-insensitive and bimodal (1T for mispredicted, 3T else).
    pred150 = dist(150, "Pred")
    pred600 = dist(600, "Pred")
    assert pred150["long"][2] > 50.0  # most long queries at 3T
    assert pred150["long"][0] > 2.0  # mispredicted tail exists
    assert abs(pred150["long"][2] - pred600["long"][2]) < 8.0
