"""Scenario execution: repeats, best-of timing, RSS and profiling.

Wall-clock throughput is reported as the *best* of ``repeats`` runs —
the run least disturbed by the OS — which is the standard way to
benchmark a deterministic workload whose true cost is its minimum.

Peak RSS comes from ``resource.getrusage``: a process-wide high-water
mark, monotone over the process lifetime, so a scenario's reading
includes every scenario that ran before it in the same process.  It
bounds memory from above; run a scenario alone for an isolated figure.
"""

from __future__ import annotations

import cProfile
import sys
import time
from dataclasses import dataclass, field

from .scenarios import ScenarioSpec

__all__ = ["ScenarioRun", "run_scenario", "peak_rss_kb"]


def peak_rss_kb() -> float:
    """Process-wide peak resident set size in KiB (0.0 if unavailable).

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; normalise
    to KiB.  The value is a monotone high-water mark, never a
    per-scenario delta.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return rss / 1024.0
    return float(rss)


@dataclass(frozen=True)
class ScenarioRun:
    """Best-of-``repeats`` outcome of one scenario at one size."""

    name: str
    size: int
    repeats: int
    #: Metrics of the fastest repeat (scenario-specific keys; always
    #: includes ``wall_time_s`` and a throughput key).
    metrics: dict[str, float]
    #: Process peak RSS (KiB) sampled after the last repeat — a
    #: monotone high-water mark, see :func:`peak_rss_kb`.
    peak_rss_kb: float
    #: Wall time of every repeat, for dispersion reporting.
    all_wall_times_s: tuple[float, ...] = field(default_factory=tuple)


def run_scenario(
    spec: ScenarioSpec,
    size: int,
    repeats: int = 3,
    seed: int | None = None,
    profile_path: str | None = None,
) -> ScenarioRun:
    """Run ``spec`` ``repeats`` times at ``size``; keep the fastest.

    When ``profile_path`` is given one extra repeat runs under
    :mod:`cProfile` and the stats are dumped there (the profiled run
    is excluded from timing).
    """
    from .scenarios import HOTPATH_SEED

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    seed = HOTPATH_SEED if seed is None else seed
    best: dict[str, float] | None = None
    walls: list[float] = []
    for _ in range(repeats):
        metrics = dict(spec.runner(size, seed))
        walls.append(metrics["wall_time_s"])
        if best is None or metrics["wall_time_s"] < best["wall_time_s"]:
            best = metrics
    assert best is not None
    if profile_path is not None:
        profiler = cProfile.Profile(timer=time.perf_counter)
        profiler.enable()
        spec.runner(size, seed)
        profiler.disable()
        profiler.dump_stats(profile_path)
    return ScenarioRun(
        name=spec.name,
        size=size,
        repeats=repeats,
        metrics=best,
        peak_rss_kb=peak_rss_kb(),
        all_wall_times_s=tuple(walls),
    )
