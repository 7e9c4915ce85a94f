"""Plain-text report formatting: the rows/series the paper prints.

Benchmarks print their reproduced figure/table through these helpers so
``pytest benchmarks/ --benchmark-only`` output reads like the paper's
evaluation section.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_cdf_rows"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned plain-text table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_cdf_rows(
    latencies_by_policy: Mapping[str, Sequence[float]],
    percentiles: Sequence[float],
) -> str:
    """Percentile table across policies (Figure 8-style CDF summary)."""
    import numpy as np

    headers = ["percentile", *latencies_by_policy.keys()]
    rows: list[list[object]] = []
    for p in percentiles:
        row: list[object] = [f"P{p:g}"]
        for values in latencies_by_policy.values():
            row.append(float(np.percentile(np.asarray(values), p)))
        rows.append(row)
    return format_table(headers, rows)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) < 1.0 and value != 0.0:
            return f"{value:.3f}"
        return f"{value:.1f}"
    return str(value)
