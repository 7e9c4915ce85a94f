#!/usr/bin/env python3
"""Option-pricing server: TPC beyond web search (Section 5).

Demonstrates both halves of the finance substrate:

1. the *actual* Monte Carlo pricer valuing a path-dependent Asian
   option (the computation the simulated requests stand for), and
2. the tail-latency comparison of TPC vs AP/Pred/Sequential on the
   bimodal pricing workload (10 % long requests at 9x demand).

Run:  python examples/finance_pricing.py
"""

import numpy as np

from repro.config import (
    FINANCE_LONG_DEMAND_MULTIPLIER,
    FINANCE_LONG_FRACTION,
    FINANCE_MAX_PARALLELISM,
    FINANCE_PRED_FIXED_DEGREE,
    PolicyConfig,
    ServerConfig,
)
from repro.exec import CellSpec, WorkloadSpec, memoised_workload, run_cell
from repro.experiments import DEFAULT_FINANCE_TARGET_TABLE
from repro.experiments.report import format_table
from repro.finance import AsianOption, MonteCarloPricer


def price_some_options() -> None:
    """Show the real pricing computation behind the workload."""
    pricer = MonteCarloPricer()
    rng = np.random.default_rng(7)
    print("Pricing Asian options by Monte Carlo (the real computation):")
    for name, option in (
        ("at-the-money call", AsianOption(spot=100, strike=100)),
        ("out-of-the-money call", AsianOption(spot=100, strike=120)),
        ("in-the-money put", AsianOption(spot=100, strike=120, is_call=False)),
    ):
        result = pricer.price(option, n_paths=20_000, n_steps=100, rng=rng)
        print(
            f"  {name:22s} value = {result.price:6.2f} "
            f"(+/- {1.96 * result.std_error:.2f}), "
            f"{result.path_steps / 1e6:.1f}M path-steps"
        )
    cost = pricer.calibrate_ms_per_path_step(n_paths=20_000, n_steps=100)
    print(f"  measured cost on this host: {cost * 1e6:.2f} ns per path-step\n")


def compare_policies() -> None:
    wspec = WorkloadSpec.finance()
    workload = memoised_workload(wspec)
    server_cfg = ServerConfig(max_parallelism=FINANCE_MAX_PARALLELISM)
    policy_cfg = PolicyConfig(pred_fixed_degree=FINANCE_PRED_FIXED_DEGREE)
    print(
        f"Workload: {100 * FINANCE_LONG_FRACTION:.0f}% long requests "
        f"at {FINANCE_LONG_DEMAND_MULTIPLIER:g}x demand "
        f"({workload.long_paths} vs {workload.short_paths} paths); "
        f"max degree {FINANCE_MAX_PARALLELISM}."
    )

    rows = []
    for rps in (100.0, 200.0, 400.0, 600.0):
        row = [int(rps)]
        for policy in ("Sequential", "AP", "Pred", "TPC"):
            result = run_cell(
                CellSpec.for_experiment(
                    wspec, policy, rps, 15_000, seed=5,
                    target_table=DEFAULT_FINANCE_TARGET_TABLE,
                    server_config=server_cfg,
                    policy_config=policy_cfg,
                )
            )
            row.append(round(result.summary.p99_ms, 1))
        rows.append(row)
    print()
    print(
        format_table(
            ["RPS", "Sequential", "AP", "Pred", "TPC"],
            rows,
            title="Finance server P99 latency (ms)",
        )
    )
    print(
        "\nBecause execution time is an accurate function of the request"
        "\nstructure (paths x steps), prediction is near-perfect here:"
        "\nTPC wins on prediction + load adaptation alone and dynamic"
        "\ncorrection (almost) never fires."
    )


if __name__ == "__main__":
    price_some_options()
    compare_policies()
