#!/usr/bin/env python3
"""Build a target table with Algorithm 1 and inspect its effect.

The target table maps instantaneous system load to the completion
target E that drives both predictive parallelism and the dynamic-
correction trigger.  This example runs the offline construction
(Section 3.3) at reduced scale and shows what the table buys over
naive constant targets.

Run:  python examples/target_table_tuning.py   (~6 s cold on a 2-vCPU host)
"""

from repro import default_workload
from repro.config import TargetTableConfig
from repro.core.table_builder import build_target_table_multistart
from repro.core.target_table import TargetTable
from repro.experiments.report import format_table
from repro.experiments.runner import make_measure_tail, make_measure_tail_batch


def main() -> None:
    workload = default_workload()
    config = TargetTableConfig(
        load_grid=(0.0, 4.0, 10.0, 20.0),
        step_ms=10.0,
        measure_loads_qps=(150.0, 500.0, 800.0),
        measure_weights=(1.0, 1.0, 1.0),
        queries_per_measurement=4_000,
    )
    measure = make_measure_tail(workload, config, seed=42)
    measure_batch = make_measure_tail_batch(workload, config, seed=42)

    print("Running BuildTargetTable (greedy gradient descent, multi-start)...")
    result = build_target_table_multistart(
        config.load_grid,
        initial_levels_ms=[25.0, 45.0],
        step_ms=config.step_ms,
        measure_tail=measure_batch,
        max_iterations=10,
    )
    print(
        f"  {result.measurements} MeasureTail runs; best weighted tail = "
        f"{result.tail_latency_ms:.1f} ms"
    )
    print()
    print(
        format_table(
            ["load (long threads)", "target E (ms)"],
            [[f"{d:g}", f"{e:g}"] for d, e in result.table.entries],
            title="Searched target table",
        )
    )

    print("\nComparing against constant-target tables:")
    rows = []
    for name, table in (
        ("tight constant (25 ms)", TargetTable.constant(25.0)),
        ("loose constant (80 ms)", TargetTable.constant(80.0)),
        ("searched table", result.table),
    ):
        rows.append([name, round(measure(table), 1)])
    print(format_table(["table", "weighted tail (ms)"], rows))
    print(
        "\nTight targets over-parallelize under load; loose targets waste"
        "\nidle capacity.  The searched table adapts E to the load the"
        "\nscheduler actually observes."
    )


if __name__ == "__main__":
    main()
