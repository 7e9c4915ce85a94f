"""Deterministic per-ISN fault models for the cluster simulation.

A :class:`FaultSpec` is a frozen, picklable value describing *when and
how* individual ISNs misbehave, in three shapes observed in production
partition-aggregate clusters:

* **slowdown** — a transient demand multiplier over ``[t0, t1)``
  (background compaction, co-located batch job, thermal throttling):
  replicas arriving at the ISN inside the window cost
  ``severity``× their nominal demand;
* **degraded** — a shrunken worker pool over ``[t0, t1)`` (cores lost
  to a noisy neighbour or offlined by the OS): the ISN dispatches at
  most ``severity`` workers while the window is open, draining — not
  preempting — any excess already running;
* **blackout** — a crash window over ``[t0, t1)``: replicas in flight
  at ``t0`` are killed, and replicas arriving inside the window are
  dropped without a response.

Because the spec is plain frozen data (dataclasses of scalars), it
participates in :func:`repro.exec.spec.spec_hash` content hashes, so
faulted sweeps cache correctly: the same seed and the same spec is the
same cell.  :func:`sample_fault_spec` draws a random spec from a
:class:`~repro.rng.RngFactory` stream, so randomised fault campaigns
are reproducible from a single experiment seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..rng import RngFactory

__all__ = ["FaultKind", "FaultWindow", "FaultSpec", "sample_fault_spec"]


#: Window kinds (plain strings so specs canonicalise trivially).
class FaultKind:
    """Names of the supported fault shapes."""

    SLOWDOWN = "slowdown"
    DEGRADED = "degraded"
    BLACKOUT = "blackout"

    ALL = (SLOWDOWN, DEGRADED, BLACKOUT)


@dataclass(frozen=True)
class FaultWindow:
    """One fault episode on one ISN over ``[t0_ms, t1_ms)``.

    ``severity`` is kind-specific: the demand multiplier of a slowdown
    (> 1), the remaining worker count of a degraded window (>= 1), and
    unused (fixed at 0.0) for a blackout.
    """

    kind: str
    isn: int
    t0_ms: float
    t1_ms: float
    severity: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.isn < 0:
            raise ConfigError(f"isn must be >= 0, got {self.isn}")
        if not 0 <= self.t0_ms < self.t1_ms:
            raise ConfigError(
                f"fault window needs 0 <= t0 < t1, got [{self.t0_ms}, "
                f"{self.t1_ms})"
            )
        if not math.isfinite(self.severity):
            raise ConfigError(
                f"fault severity must be finite, got {self.severity}"
            )
        if self.kind == FaultKind.SLOWDOWN and self.severity <= 1.0:
            raise ConfigError(
                f"slowdown severity is a demand multiplier > 1, got "
                f"{self.severity}"
            )
        if self.kind == FaultKind.DEGRADED and (
            self.severity < 1 or self.severity != int(self.severity)
        ):
            raise ConfigError(
                f"degraded severity is a worker count >= 1, got "
                f"{self.severity}"
            )

    def active_at(self, t_ms: float) -> bool:
        """True while the window is open (half-open interval)."""
        return self.t0_ms <= t_ms < self.t1_ms


@dataclass(frozen=True)
class FaultSpec:
    """A frozen set of per-ISN fault windows (canonically ordered)."""

    windows: tuple[FaultWindow, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.windows,
                key=lambda w: (w.t0_ms, w.t1_ms, w.isn, w.kind),
            )
        )
        object.__setattr__(self, "windows", ordered)

    # -- constructors ---------------------------------------------------

    @classmethod
    def none(cls) -> "FaultSpec":
        """The healthy cluster: no fault windows."""
        return cls(())

    @classmethod
    def straggler(
        cls,
        isn: int,
        multiplier: float,
        t0_ms: float = 0.0,
        t1_ms: float = float("inf"),
    ) -> "FaultSpec":
        """One ISN slowed by ``multiplier`` over ``[t0, t1)``."""
        if t1_ms == float("inf"):
            t1_ms = 1e12  # effectively the whole run, but hashable/finite
        return cls(
            (FaultWindow(FaultKind.SLOWDOWN, isn, t0_ms, t1_ms, multiplier),)
        )

    @classmethod
    def rolling_blackout(
        cls,
        num_isns: int,
        duration_ms: float,
        stagger_ms: float,
        start_ms: float = 0.0,
        count: int | None = None,
    ) -> "FaultSpec":
        """Consecutive ISNs crash one after another (rolling restart).

        ISN ``i`` is down over ``[start + i * stagger, ... + duration)``
        for the first ``count`` ISNs (all of them by default).
        """
        if num_isns < 1:
            raise ConfigError("num_isns must be >= 1")
        if duration_ms <= 0 or stagger_ms < 0:
            raise ConfigError("duration must be > 0 and stagger >= 0")
        count = num_isns if count is None else count
        if not 1 <= count <= num_isns:
            raise ConfigError(f"count must be in [1, num_isns], got {count}")
        return cls(
            tuple(
                FaultWindow(
                    FaultKind.BLACKOUT,
                    isn,
                    start_ms + isn * stagger_ms,
                    start_ms + isn * stagger_ms + duration_ms,
                )
                for isn in range(count)
            )
        )

    # -- queries --------------------------------------------------------

    @property
    def is_noop(self) -> bool:
        """True when the spec injects nothing."""
        return not self.windows

    @property
    def has_blackouts(self) -> bool:
        """True when any window is a blackout (needs k < n or hedging)."""
        return any(w.kind == FaultKind.BLACKOUT for w in self.windows)

    def validate_for(self, num_isns: int) -> None:
        """Check every window addresses an existing ISN."""
        for w in self.windows:
            if w.isn >= num_isns:
                raise ConfigError(
                    f"fault window targets ISN {w.isn} but the cluster "
                    f"has only {num_isns} ISNs"
                )
        if self.has_blackouts:
            starts = [
                w.t0_ms for w in self.windows if w.kind == FaultKind.BLACKOUT
            ]
            for t in starts:
                down = sum(
                    1 for isn in range(num_isns) if self.is_blacked_out(isn, t)
                )
                if down >= num_isns:
                    raise ConfigError(
                        f"every ISN is blacked out simultaneously at "
                        f"t={t:g} ms; at least one node must stay reachable"
                    )

    def demand_multiplier(self, isn: int, t_ms: float) -> float:
        """Product of all slowdown multipliers open on ``isn`` at ``t``."""
        factor = 1.0
        for w in self.windows:
            if (
                w.kind == FaultKind.SLOWDOWN
                and w.isn == isn
                and w.active_at(t_ms)
            ):
                factor *= w.severity
        return factor

    def worker_limit(self, isn: int, t_ms: float) -> int | None:
        """Smallest degraded-pool cap open on ``isn`` at ``t`` (or None)."""
        limit: int | None = None
        for w in self.windows:
            if (
                w.kind == FaultKind.DEGRADED
                and w.isn == isn
                and w.active_at(t_ms)
            ):
                cap = int(w.severity)
                limit = cap if limit is None else min(limit, cap)
        return limit

    def is_blacked_out(self, isn: int, t_ms: float) -> bool:
        """True while ``isn`` sits inside any blackout window."""
        return any(
            w.kind == FaultKind.BLACKOUT and w.isn == isn and w.active_at(t_ms)
            for w in self.windows
        )

    def transition_times(self, kind: str) -> list[tuple[float, int]]:
        """Sorted, deduplicated ``(time, isn)`` boundaries of one kind.

        The resilient runner schedules a state-recomputation event at
        each boundary (window opening or closing).
        """
        points = {
            (t, w.isn)
            for w in self.windows
            if w.kind == kind
            for t in (w.t0_ms, w.t1_ms)
        }
        return sorted(points)


def sample_fault_spec(
    rngs: RngFactory,
    num_isns: int,
    horizon_ms: float,
    slowdown_probability: float = 0.15,
    slowdown_multiplier: tuple[float, float] = (2.0, 6.0),
    degraded_probability: float = 0.1,
    degraded_workers: int = 8,
    blackout_probability: float = 0.0,
    mean_window_ms: float = 2_000.0,
    stream: str = "faults",
) -> FaultSpec:
    """Draw a random fault campaign from a named RNG stream.

    Each ISN independently suffers at most one window per kind: a
    Bernoulli draw per kind decides whether the episode happens, its
    start is uniform over the horizon, and its length exponential with
    mean ``mean_window_ms`` (clipped to the horizon).  The same
    ``(RngFactory seed, arguments)`` always produces the same spec, so
    sampled campaigns hash — and therefore cache — deterministically.
    """
    if num_isns < 1:
        raise ConfigError("num_isns must be >= 1")
    if horizon_ms <= 0:
        raise ConfigError("horizon_ms must be > 0")
    lo, hi = slowdown_multiplier
    if not 1.0 < lo <= hi:
        raise ConfigError(
            f"slowdown_multiplier must satisfy 1 < lo <= hi, got {lo}, {hi}"
        )
    rng = rngs.get(stream)
    windows: list[FaultWindow] = []
    for isn in range(num_isns):
        for kind, probability in (
            (FaultKind.SLOWDOWN, slowdown_probability),
            (FaultKind.DEGRADED, degraded_probability),
            (FaultKind.BLACKOUT, blackout_probability),
        ):
            # One draw per (isn, kind) regardless of the outcome keeps
            # the stream layout stable when probabilities change.
            u = float(rng.random())
            t0 = float(rng.uniform(0.0, horizon_ms))
            length = float(rng.exponential(mean_window_ms))
            if u >= probability:
                continue
            t1 = min(t0 + max(length, 1.0), horizon_ms)
            if t1 <= t0:
                continue
            if kind == FaultKind.SLOWDOWN:
                severity = float(rng.uniform(lo, hi))
            elif kind == FaultKind.DEGRADED:
                severity = float(degraded_workers)
            else:
                severity = 0.0
            windows.append(FaultWindow(kind, isn, t0, t1, severity))
    spec = FaultSpec(tuple(windows))
    spec.validate_for(num_isns)
    return spec
