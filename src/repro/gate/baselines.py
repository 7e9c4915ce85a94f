"""The repository's baseline store: blessed values for relative bands.

Machine-relative bands (e.g. "TPC p99 within 25 % of the blessed
run", "engine throughput at least 70 % of the blessed run") need a
reference value.  Those references live in one JSON file under
``benchmarks/baselines/``, keyed by mode and metric id, and ``python
-m repro.gate --update-baselines`` refreshes them.  A refresh
overwrites only the metrics it measured: a default run refreshes the
fidelity and determinism metrics, ``--only perf`` the ``perf.*``
throughput metrics, and neither clobbers the other's entries.

Serialisation goes through :func:`repro.artifacts.write_json`, so a
write → load → write round trip is bit-stable and baseline diffs in
review show only genuinely changed values.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from ..artifacts import write_json
from ..errors import ConfigError

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "default_baselines_path",
    "load_baselines",
    "save_baselines",
    "merge_baselines",
]

BASELINE_SCHEMA_VERSION = 1

#: Filename of the single baseline store.
BASELINE_FILENAME = "gate_baseline.json"


def default_baselines_path() -> Path:
    """``benchmarks/baselines/gate_baseline.json`` in a source checkout.

    Resolved relative to this file (``src/repro/gate`` → repo root);
    for a non-editable install without the benchmarks tree, callers
    get a path that does not exist and degrade to absolute bands.
    """
    return (
        Path(__file__).resolve().parents[3]
        / "benchmarks"
        / "baselines"
        / BASELINE_FILENAME
    )


def load_baselines(
    path: str | Path | None = None, mode: str | None = None
) -> dict:
    """Load the baseline document (or one mode's metric map).

    Returns ``{}`` when the file is absent — a fresh clone runs with
    paper-absolute bands only.  With ``mode`` given, returns just that
    mode's ``{metric: value}`` mapping.
    """
    target = Path(path) if path is not None else default_baselines_path()
    if not target.is_file():
        return {}
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unreadable baseline file {target}: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"baseline file {target} is not a JSON object")
    if document.get("schema_version") != BASELINE_SCHEMA_VERSION:
        raise ConfigError(
            f"baseline file {target} has schema "
            f"{document.get('schema_version')!r}, "
            f"expected {BASELINE_SCHEMA_VERSION}"
        )
    if mode is None:
        return document
    modes = document.get("modes", {})
    metrics = modes.get(mode, {})
    if not isinstance(metrics, dict):
        raise ConfigError(f"baseline mode {mode!r} is not a JSON object")
    return {str(k): float(v) for k, v in metrics.items()}


def save_baselines(document: dict, path: str | Path | None = None) -> Path:
    """Write a baseline document canonically; returns the path."""
    return write_json(document, path if path is not None else default_baselines_path())


def merge_baselines(
    document: dict,
    mode: str,
    metrics: Mapping[str, float],
    git_sha: str = "unknown",
) -> dict:
    """Fold freshly measured values for one mode into the document.

    Only the given metrics are overwritten: the mode's other entries and
    every other mode are preserved, so fast and full baselines, and the
    deterministic and the timed checks' metrics, are refreshed
    independently.
    A retired metric is removed by deleting its key from the file.
    """
    modes = {
        str(name): dict(values)
        for name, values in document.get("modes", {}).items()
    }
    modes.setdefault(mode, {}).update(
        {str(k): round(float(v), 6) for k, v in metrics.items()}
    )
    return {
        "schema_version": BASELINE_SCHEMA_VERSION,
        "updated_from_git_sha": git_sha,
        "modes": modes,
    }
