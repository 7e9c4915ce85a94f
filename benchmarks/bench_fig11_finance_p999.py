"""F11 — Figure 11: 99.9th-percentile latency on the finance server.

Expected shape (Section 5.1): same ordering as P99 and — because the
structural execution-time estimate is near-perfect — P99.9 sits just
above P99 for TPC (paper: P99 = 37 ms, P99.9 = 41 ms at 200 RPS) and
dynamic correction never fires at the paper's operating loads.
"""

from conftest import emit
from repro.config import (
    FINANCE_LONG_DEMAND_MULTIPLIER,
    FINANCE_LONG_FRACTION,
    FINANCE_SHORT_DEMAND_MS,
)
from repro.experiments.report import format_table
from repro.experiments.scenarios import DEFAULT_RPS_GRID_FINANCE

from bench_fig10_finance_p99 import POLICIES, run_finance_sweep


def test_fig11_finance_p999(benchmark, finance, finance_table,
                            finance_server_config, finance_policy_config):
    results = benchmark.pedantic(
        lambda: run_finance_sweep(
            finance, finance_table, finance_server_config,
            finance_policy_config,
        ),
        rounds=1,
        iterations=1,
    )
    rows = [
        [int(rps)] + [round(results[p][i].summary.p999_ms, 1) for p in POLICIES]
        for i, rps in enumerate(DEFAULT_RPS_GRID_FINANCE)
    ]
    emit(
        "fig11_finance_p999",
        format_table(
            ["RPS", *POLICIES],
            rows,
            title="Figure 11 - finance server P99.9 (ms) vs load",
        ),
    )

    i200 = DEFAULT_RPS_GRID_FINANCE.index(200)
    tpc200 = results["TPC"][i200]
    # P99.9 close to P99: accurate structural prediction leaves no
    # misprediction tail (paper: 37 vs 41 ms).
    assert tpc200.summary.p999_ms < tpc200.summary.p99_ms * 1.5
    # Dynamic correction (nearly) never fires at the paper's loads —
    # the structural estimate is accurate (Section 5.1).
    assert tpc200.corrected.mean() < 0.01
    # Same winner ordering as Figure 10 at moderate load.
    assert (
        tpc200.summary.p999_ms
        <= min(results[p][i200].summary.p999_ms for p in POLICIES[:-1]) * 1.10
    )


def test_finance_concurrency_matches_paper(benchmark):
    """Paper: 'At 200 RPS, with TPC, there are on average 3.5
    concurrent requests in the system.'  Mean demand 18 ms x 200 RPS
    = 3.6 by Little's law."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    mean_demand_ms = (
        (1 - FINANCE_LONG_FRACTION) * FINANCE_SHORT_DEMAND_MS
        + FINANCE_LONG_FRACTION
        * FINANCE_SHORT_DEMAND_MS
        * FINANCE_LONG_DEMAND_MULTIPLIER
    )
    concurrency = 200.0 * mean_demand_ms / 1000.0
    assert abs(concurrency - 3.5) < 0.3
