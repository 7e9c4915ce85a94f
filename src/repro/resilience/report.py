"""``BENCH_resilience.json`` and the human-readable scenario summary.

The artifact opens with the common header of
:func:`repro.artifacts.artifact_header` (schema, producer, git SHA,
mode, environment) and is self-contained: every (policy, variant) row
with its latency percentiles and mitigation accounting, plus the
per-policy tail improvement of each variant over the scenario's
baseline variant.  Write it with :func:`repro.artifacts.write_json`.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..artifacts import artifact_header
from .scenarios import ScenarioResult

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "build_report",
    "render_summary",
]

REPORT_SCHEMA_VERSION = 1


def _scenario_dict(result: ScenarioResult) -> dict[str, Any]:
    rows = [
        {"policy": policy, "variant": variant, **metrics}
        for (policy, variant), metrics in result.rows.items()
    ]
    baseline = result.variant_labels[0]
    improvements = [
        {
            "policy": policy,
            "variant": variant,
            "baseline": baseline,
            "p999_improvement": result.improvement(policy, variant),
        }
        for (policy, variant) in result.rows
        if variant != baseline
    ]
    return {
        "name": result.name,
        "fast": result.fast,
        "qps": result.qps,
        "n_queries": result.n_queries,
        "num_isns": result.num_isns,
        "fault_windows": [
            {
                "kind": w.kind,
                "isn": w.isn,
                "t0_ms": w.t0_ms,
                "t1_ms": w.t1_ms,
                "severity": w.severity,
            }
            for w in result.fault_spec.windows
        ],
        "variants": list(result.variant_labels),
        "rows": rows,
        "p999_improvements": improvements,
        "timing": {
            "cells_executed": result.cells_executed,
            "cells_from_cache": result.cells_from_cache,
            "wall_time_s": round(result.wall_time_s, 4),
        },
    }


def build_report(results: Sequence[ScenarioResult]) -> dict[str, Any]:
    """Assemble the full JSON document for one or more scenario runs."""
    mode = "fast" if any(r.fast for r in results) else "full"
    return {
        **artifact_header("repro.resilience", REPORT_SCHEMA_VERSION, mode),
        "status": "ok",
        "scenarios": [_scenario_dict(r) for r in results],
    }


def render_summary(results: Sequence[ScenarioResult]) -> str:
    """Human-readable per-scenario tables, one row per (policy, variant)."""
    lines: list[str] = []
    for result in results:
        mode = "fast" if result.fast else "full"
        lines.append(
            f"scenario {result.name} — {result.num_isns} ISNs @ "
            f"{result.qps:g} QPS, {result.n_queries} queries ({mode}); "
            f"{result.cells_executed} cells simulated, "
            f"{result.cells_from_cache} from cache, "
            f"wall {result.wall_time_s:.1f}s"
        )
        header = (
            f"  {'policy':<12} {'variant':<16} {'p50':>8} {'p99':>8} "
            f"{'p99.9':>8} {'hedge%':>7} {'waste%':>7} {'k-cov':>6}"
        )
        lines.append(header)
        for (policy, variant), row in result.rows.items():
            hedge = 100.0 * row.get("hedge_rate", 0.0)
            waste = 100.0 * row.get("wasted_work_fraction", 0.0)
            kcov = row.get("k_coverage_mean", 1.0)
            lines.append(
                f"  {policy:<12} {variant:<16} {row['p50_ms']:>8.1f} "
                f"{row['p99_ms']:>8.1f} {row['p999_ms']:>8.1f} "
                f"{hedge:>7.1f} {waste:>7.1f} {kcov:>6.2f}"
            )
        baseline = result.variant_labels[0]
        for (policy, variant) in result.rows:
            if variant == baseline:
                continue
            gain = 100.0 * result.improvement(policy, variant)
            lines.append(
                f"  {policy}: {variant} vs {baseline} — "
                f"P99.9 {'improved' if gain >= 0 else 'regressed'} "
                f"{abs(gain):.1f}%"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
