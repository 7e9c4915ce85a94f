"""Ablations of the design choices DESIGN.md calls out.

Not paper artifacts; these quantify choices the paper makes implicitly:

* correction-trigger timing — fire at E (the paper) vs 1.5E vs 3E;
* spare-resource signal — idle worker threads (the paper) vs idle
  hardware contexts;
* ramp-up penalty — how sensitive the results are to the cost charged
  for a mid-flight degree increase;
* SMT model — what happens to the headline comparison if the 24
  hardware threads really were 24 full cores;
* load-aware RampUp — the strongest prediction-free ramping variant
  still loses to TPC (Section 4.4's closing claim).
"""

import numpy as np

from conftest import bench_cell, emit, exec_kwargs, qps_grid, run_tpc_variant
from repro.analysis import dominance_fraction
from repro.config import ServerConfig
from repro.exec import run_sweep
from repro.experiments.report import format_table
from repro.policies.tpc import TPCPolicy


def test_ablation_correction_timing(benchmark, workload, search_table):
    """Firing correction at exactly E beats firing late; firing late
    approaches TP as the factor grows."""
    factors = (1.0, 1.5, 3.0)
    loads = (450.0, 750.0)

    def run():
        table = {}
        for factor in factors:
            table[factor] = [
                run_tpc_variant(
                    workload, qps,
                    TPCPolicy(
                        search_table, workload.speedup_book,
                        correction_delay_factor=factor,
                    ),
                ).p999_ms
                for qps in loads
            ]
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"{factor:g} x E"] + [round(v, 1) for v in values]
        for factor, values in table.items()
    ]
    emit(
        "ablation_correction_timing",
        format_table(
            ["trigger", *(f"P99.9 @{int(q)} QPS" for q in loads)],
            rows,
            title="Ablation - correction-trigger timing",
        ),
    )
    for i in range(len(loads)):
        assert table[1.0][i] <= table[3.0][i] * 1.02


def test_ablation_resource_signal(benchmark, workload, search_table):
    """Idle workers vs idle hardware contexts as the correction budget:
    both work; the paper's idle-worker signal is never worse here."""
    loads = (450.0, 750.0)

    def run():
        out = {}
        for signal in ("idle_workers", "idle_hardware"):
            out[signal] = [
                run_tpc_variant(
                    workload, qps,
                    TPCPolicy(
                        search_table, workload.speedup_book,
                        resource_signal=signal,
                    ),
                ).p999_ms
                for qps in loads
            ]
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [signal] + [round(v, 1) for v in values]
        for signal, values in out.items()
    ]
    emit(
        "ablation_resource_signal",
        format_table(
            ["signal", *(f"P99.9 @{int(q)} QPS" for q in loads)],
            rows,
            title="Ablation - spare-resource signal",
        ),
    )
    for i in range(len(loads)):
        ratio = out["idle_workers"][i] / out["idle_hardware"][i]
        assert 0.7 < ratio < 1.3  # same ballpark; neither pathological


def test_ablation_rampup_penalty(benchmark, search_table):
    """Sensitivity to the mid-flight degree-increase penalty: results
    should degrade gracefully, not cliff, as the penalty grows."""
    penalties = (0.0, 0.5, 2.0)
    qps = 600.0

    def run():
        cells = [
            bench_cell(
                "TPC", qps, target_table=search_table,
                server_config=ServerConfig(rampup_penalty_ms=penalty),
            )
            for penalty in penalties
        ]
        results = run_sweep(cells, **exec_kwargs())
        return {
            penalty: (r.summary.p99_ms, r.summary.p999_ms)
            for penalty, r in zip(penalties, results)
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"{p:g} ms", round(v[0], 1), round(v[1], 1)]
        for p, v in out.items()
    ]
    emit(
        "ablation_rampup_penalty",
        format_table(
            ["penalty", "P99", "P99.9"],
            rows,
            title=f"Ablation - ramp-up penalty @{qps:g} QPS",
        ),
    )
    assert out[0.0][1] <= out[2.0][1] * 1.05  # cheaper rampup never hurts
    assert out[2.0][1] <= out[0.0][1] * 1.5  # ... and 2 ms doesn't cliff


def test_ablation_smt_model(benchmark, search_table):
    """Replace 12-core-SMT with 24 full cores: everyone gets faster
    (the SMT ceiling is what creates the paper's high-load saturation),
    and — notably — TPC benefits *more* than AP, because AP's high-load
    problem is not only contention but also the poor degrees it gives
    long queries."""
    qps = 750.0
    models = (
        ("12 cores + SMT (paper)", ServerConfig()),
        (
            "24 full cores",
            ServerConfig(physical_cores=24, smt_marginal_throughput=0.0),
        ),
    )
    policies = ("AP", "TPC")

    def run():
        cells = [
            bench_cell(policy, qps, target_table=search_table, server_config=cfg)
            for _, cfg in models
            for policy in policies
        ]
        results = iter(run_sweep(cells, **exec_kwargs()))
        return {
            label: {policy: next(results).summary.p99_ms for policy in policies}
            for label, _ in models
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [label, round(vals["AP"], 1), round(vals["TPC"], 1),
         round(vals["AP"] / vals["TPC"], 2)]
        for label, vals in out.items()
    ]
    emit(
        "ablation_smt",
        format_table(
            ["hardware model", "AP P99", "TPC P99", "AP/TPC"],
            rows,
            title=f"Ablation - hardware model @{qps:g} QPS",
        ),
    )
    smt = out["12 cores + SMT (paper)"]
    full = out["24 full cores"]
    # More capacity helps every policy...
    assert full["TPC"] < smt["TPC"]
    assert full["AP"] < smt["AP"]
    # ...and TPC still wins decisively under either hardware model.
    assert full["TPC"] < full["AP"]
    assert smt["TPC"] < smt["AP"]


def test_ablation_adaptive_rampup(benchmark, search_table):
    """Section 4.4's closing claim: even load-aware RampUp (best
    interval per load) stays behind TPC across the load range."""
    grid = qps_grid()

    def run():
        cells = [bench_cell("TPC", qps, target_table=search_table) for qps in grid]
        cells += [bench_cell("RampUp-Adaptive", qps) for qps in grid]
        p99 = [r.summary.p99_ms for r in run_sweep(cells, **exec_kwargs())]
        return p99[: len(grid)], p99[len(grid) :]

    tpc, adaptive = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [int(qps), round(adaptive[i], 1), round(tpc[i], 1)]
        for i, qps in enumerate(grid)
    ]
    emit(
        "ablation_adaptive_rampup",
        format_table(
            ["QPS", "RampUp-adaptive P99", "TPC P99"],
            rows,
            title="Ablation - load-aware RampUp vs TPC",
        ),
    )
    # TPC at least matches load-aware RampUp nearly everywhere and the
    # mean gap favours TPC.
    assert dominance_fraction(tpc, adaptive, tolerance=0.08) >= 0.8
    assert float(np.mean(tpc)) < float(np.mean(adaptive))
