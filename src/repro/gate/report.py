"""The gate's artifact: ``BENCH_gate.json`` and the human summary.

A :class:`GateReport` is versioned (schema), attributed (git SHA,
mode, environment), and self-contained: every check's status, every
measurement with its effective band and baseline, and the execution
timings (cells run vs served from cache) needed to audit a CI run
from the artifact alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..artifacts import write_json
from .bands import EvaluatedMeasurement

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "CheckReport",
    "GateReport",
]

#: v2: ``timing.payload_hits`` removed (the cluster check is a cell).
REPORT_SCHEMA_VERSION = 2


@dataclass
class CheckReport:
    """Outcome of one gate check."""

    name: str
    description: str
    paper_ref: str
    status: str  # "pass" | "fail" | "error"
    wall_time_s: float
    measurements: list[EvaluatedMeasurement] = field(default_factory=list)
    error: str = ""

    @property
    def violations(self) -> list[EvaluatedMeasurement]:
        """The measurements that fell outside their bands."""
        return [m for m in self.measurements if not m.passed]

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "wall_time_s": round(self.wall_time_s, 4),
            "measurements": [m.as_dict() for m in self.measurements],
            "error": self.error,
        }


@dataclass
class GateReport:
    """The full gate outcome, serialisable as ``BENCH_gate.json``."""

    checks: list[CheckReport]
    total_wall_time_s: float
    cells_total: int
    cells_executed: int
    cells_from_cache: int
    #: :func:`repro.artifacts.artifact_header` of the run (mode, SHA, ...).
    header: dict[str, Any]
    baselines_used: bool = False

    @property
    def mode(self) -> str:
        return self.header["mode"]

    @property
    def sha(self) -> str:
        return self.header["git_sha"]

    @property
    def passed(self) -> bool:
        """True iff every executed check passed."""
        return all(c.status == "pass" for c in self.checks)

    @property
    def status(self) -> str:
        if any(c.status == "error" for c in self.checks):
            return "error"
        return "pass" if self.passed else "fail"

    def check(self, name: str) -> CheckReport:
        """Look up one check's report by name."""
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in this report")

    def to_json_dict(self) -> dict[str, Any]:
        counts = {
            "passed": sum(1 for c in self.checks if c.status == "pass"),
            "failed": sum(1 for c in self.checks if c.status == "fail"),
            "errored": sum(1 for c in self.checks if c.status == "error"),
        }
        return {
            **self.header,
            "status": self.status,
            "counts": counts,
            "timing": {
                "total_wall_time_s": round(self.total_wall_time_s, 4),
                "cells_total": self.cells_total,
                "cells_executed": self.cells_executed,
                "cells_from_cache": self.cells_from_cache,
            },
            "baselines_used": self.baselines_used,
            "checks": [c.as_dict() for c in self.checks],
        }

    def write(self, path: str | Path) -> Path:
        """Write ``BENCH_gate.json`` to ``path``; returns the path."""
        return write_json(self.to_json_dict(), path)

    def render_summary(self) -> str:
        """The human-readable verdict printed after a run."""
        lines = [
            f"repro.gate — mode={self.mode}  git={self.sha[:12]}  "
            f"status={self.status.upper()}",
            f"cells: {self.cells_total} total, "
            f"{self.cells_executed} simulated, "
            f"{self.cells_from_cache} from cache; "
            f"wall {self.total_wall_time_s:.1f}s",
            "",
        ]
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "error": "ERROR"}[c.status]
            lines.append(
                f"[{mark}] {c.name} ({c.wall_time_s:.2f}s) — {c.description}"
            )
            if c.error:
                lines.append(f"       error: {c.error}")
            for m in c.violations:
                lines.append(f"       {m.describe()}")
        if self.status == "pass":
            lines.append("")
            lines.append("All checks passed: the reproduction still "
                         "matches the paper's headline numbers.")
        return "\n".join(lines)
