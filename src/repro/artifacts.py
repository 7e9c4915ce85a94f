"""The one writer of the repository's JSON artifacts.

The gate report (``BENCH_gate.json``; CI's ``--only perf`` run writes
it as ``BENCH_perf.json``), ``BENCH_resilience.json`` and the baseline
store all go through :func:`write_json`, and every report opens with
the same :func:`artifact_header` — schema version, producer, git SHA,
mode and environment — so an artifact can be audited on its own, away
from the run that produced it.
"""

from __future__ import annotations

import json
import platform
import subprocess
from pathlib import Path
from typing import Any, Mapping

__all__ = ["git_sha", "environment", "artifact_header", "write_json"]


def git_sha() -> str:
    """The commit of the checkout this code was imported from.

    Git runs in this file's directory, not the working directory;
    ``"unknown"`` outside a git checkout.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def environment() -> dict[str, Any]:
    """Interpreter, numpy, package version and platform of this run."""
    import numpy

    import repro

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": getattr(repro, "__version__", "unknown"),
        "platform": platform.platform(),
    }


def artifact_header(
    generated_by: str, schema_version: int, mode: str
) -> dict[str, Any]:
    """The keys every report starts with."""
    return {
        "schema_version": schema_version,
        "generated_by": generated_by,
        "git_sha": git_sha(),
        "mode": mode,
        "environment": environment(),
    }


def write_json(document: Mapping[str, Any], path: str | Path) -> Path:
    """Write ``document`` canonically; returns the path.

    Sorted keys, two-space indentation, a trailing newline and UTF-8,
    so a write → load → write round trip is byte-stable and diffs of
    checked-in files show only changed values.  Parent directories are
    created.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target
