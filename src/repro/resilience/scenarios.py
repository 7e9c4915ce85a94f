"""Named resilience scenarios: faults × mitigations × policies.

Each :class:`Scenario` fixes a fault campaign and a small set of
mitigation *variants* (hedge policies), then compares the paper's
policies (Sequential / Pred / TPC) under every variant at one load
point.  Scenario cells are declared as
:class:`~repro.exec.spec.CellSpec` values and routed through
:func:`repro.exec.pool.run_sweep`, so they parallelise across the
process pool and cache like every other experiment in the repo.

The shipped scenarios:

* ``healthy-baseline`` — no faults; measures what the mitigations cost
  when nothing is wrong (hedge rate and wasted work should be ~0).
* ``one-straggler`` — one ISN runs 4x slow for the whole run; the
  wait-for-all aggregator inherits the straggler's tail, hedging
  routes around it.
* ``rolling-blackout`` — ISNs crash one after another (a rolling
  restart); strict wait-for-all cannot terminate, so the variants are
  partial-wait and partial-wait + hedging.
* ``overloaded-hedging`` — a slowdown under high load with an
  aggressive hedge timeout; prices the extra work hedging injects
  exactly when the cluster has the least capacity to spare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..config import ClusterConfig
from ..core.target_table import TargetTable
from ..errors import ConfigError
from ..exec.cache import ENV_CACHE, CacheArg
from ..exec.pool import ProgressEvent, run_sweep
from ..exec.spec import CellResult, CellSpec, WorkloadSpec
from ..experiments.scenarios import (
    DEFAULT_SEED,
    default_target_table,
    default_workload_spec,
)
from .faults import FaultSpec
from .hedging import HedgePolicy

__all__ = [
    "Scenario",
    "ScenarioResult",
    "SCENARIOS",
    "get_scenario",
    "list_scenarios",
    "run_scenario",
    "sizing",
]

#: The policy set every scenario compares (cf. Figure 8).
SCENARIO_POLICIES: tuple[str, ...] = ("Sequential", "Pred", "TPC")
#: Every scenario's sizing: (queries, ISNs) in full and ``--fast`` mode.
N_QUERIES, NUM_ISNS = 3000, 8
FAST_N_QUERIES, FAST_NUM_ISNS = 500, 4


def sizing(fast: bool) -> tuple[int, int]:
    """(n_queries, num_isns) for the requested mode."""
    if fast:
        return FAST_N_QUERIES, FAST_NUM_ISNS
    return N_QUERIES, NUM_ISNS


@dataclass(frozen=True)
class Scenario:
    """One named fault campaign with its mitigation variants.

    ``make_fault`` receives ``(num_isns, horizon_ms)`` — the horizon is
    the expected request span ``n_queries / qps`` — and returns the
    fault campaign; ``make_variants`` receives ``num_isns`` and returns
    ``(label, HedgePolicy)`` pairs, baseline first.  Both are callables
    because blackout times and wait-for-k quorums scale with the run.
    Sizing (:func:`sizing`), policies and seed are shared by every
    scenario.
    """

    name: str
    description: str
    qps: float
    make_fault: Callable[[int, float], FaultSpec]
    make_variants: Callable[[int], tuple[tuple[str, HedgePolicy], ...]]


@dataclass
class ScenarioResult:
    """Outcome of one scenario run: one row per (policy, variant)."""

    name: str
    fast: bool
    qps: float
    n_queries: int
    num_isns: int
    fault_spec: FaultSpec
    variant_labels: tuple[str, ...]
    #: Flat metric rows keyed by ``(policy, variant)``.
    rows: dict[tuple[str, str], dict[str, float]] = field(default_factory=dict)
    cells_executed: int = 0
    cells_from_cache: int = 0
    wall_time_s: float = 0.0

    def row(self, policy: str, variant: str) -> dict[str, float]:
        """The metric row of one (policy, variant) cell."""
        try:
            return self.rows[(policy, variant)]
        except KeyError:
            raise KeyError(
                f"no row for policy={policy!r} variant={variant!r}"
            ) from None

    def p999(self, policy: str, variant: str) -> float:
        """Aggregator P99.9 latency of one (policy, variant) cell."""
        return self.row(policy, variant)["p999_ms"]

    def improvement(self, policy: str, variant: str) -> float:
        """Fractional P99.9 gain of ``variant`` over the baseline variant.

        Positive means the mitigation lowered the tail; the baseline is
        the scenario's first variant (its no-mitigation reference).
        """
        base = self.p999(policy, self.variant_labels[0])
        return 1.0 - self.p999(policy, variant) / base


def _cell_row(result: CellResult) -> dict[str, float]:
    row: dict[str, float] = {
        "mean_ms": result.summary.mean_ms,
        "p50_ms": result.summary.p50_ms,
        "p95_ms": result.summary.p95_ms,
        "p99_ms": result.summary.p99_ms,
        "p999_ms": result.summary.p999_ms,
        "max_ms": result.summary.max_ms,
    }
    row.update(result.extras)
    return row


def run_scenario(
    scenario: Scenario | str,
    fast: bool = False,
    workers: int | None = None,
    cache: CacheArg = ENV_CACHE,
    progress: Callable[[ProgressEvent], None] | None = None,
    workload_spec: WorkloadSpec | None = None,
    target_table: TargetTable | None = None,
) -> ScenarioResult:
    """Execute one named scenario over the exec layer.

    ``workload_spec`` / ``target_table`` default to the canonical
    calibrated workload and the shipped offline-built table; tests pass
    a tiny workload to keep the runtime small.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if workload_spec is None:
        workload_spec = default_workload_spec()
    if target_table is None:
        target_table = default_target_table()
    n_queries, num_isns = sizing(fast)
    horizon_ms = 1000.0 * n_queries / scenario.qps
    fault = scenario.make_fault(num_isns, horizon_ms)
    fault.validate_for(num_isns)
    variants = scenario.make_variants(num_isns)
    if not variants:
        raise ConfigError(f"scenario {scenario.name!r} declares no variants")

    cells: list[CellSpec] = []
    keys: list[tuple[str, str]] = []
    for policy in SCENARIO_POLICIES:
        for label, hedge in variants:
            cells.append(
                CellSpec.for_experiment(
                    workload_spec,
                    policy,
                    scenario.qps,
                    n_queries,
                    DEFAULT_SEED,
                    target_table=target_table,
                    cluster_config=ClusterConfig(num_isns=num_isns),
                    # Normalise no-ops to None so an unfaulted cell
                    # hashes (and runs) identically to a plain one.
                    fault_spec=None if fault.is_noop else fault,
                    hedge_policy=None if hedge.is_noop(num_isns) else hedge,
                )
            )
            keys.append((policy, label))

    executed = 0
    cached = 0
    wall = 0.0

    def track(event: ProgressEvent) -> None:
        nonlocal executed, cached, wall
        if event.from_cache:
            cached += 1
        else:
            executed += 1
            wall += event.wall_time_s
        if progress is not None:
            progress(event)

    results = run_sweep(cells, workers=workers, cache=cache, progress=track)

    out = ScenarioResult(
        name=scenario.name,
        fast=fast,
        qps=scenario.qps,
        n_queries=n_queries,
        num_isns=num_isns,
        fault_spec=fault,
        variant_labels=tuple(label for label, _ in variants),
        cells_executed=executed,
        cells_from_cache=cached,
        wall_time_s=wall,
    )
    for key, result in zip(keys, results):
        out.rows[key] = _cell_row(result)
    return out


# ---------------------------------------------------------------------------
# The shipped scenarios.
# ---------------------------------------------------------------------------

def _no_fault(num_isns: int, horizon_ms: float) -> FaultSpec:
    return FaultSpec.none()


def _one_straggler(num_isns: int, horizon_ms: float) -> FaultSpec:
    # ISN 0 runs 4x slow for the entire run (a compacting or throttled
    # node); every query's fan-out inherits its tail under wait-for-all.
    return FaultSpec.straggler(0, 4.0, t0_ms=0.0, t1_ms=horizon_ms * 4.0)


def _rolling_blackout(num_isns: int, horizon_ms: float) -> FaultSpec:
    # A rolling restart: each ISN is down for ~6 % of the run, one
    # after another, starting after a warm-up twentieth of the run.
    return FaultSpec.rolling_blackout(
        num_isns,
        duration_ms=0.06 * horizon_ms,
        stagger_ms=0.9 * horizon_ms / num_isns,
        start_ms=0.05 * horizon_ms,
    )


def _overload_slowdown(num_isns: int, horizon_ms: float) -> FaultSpec:
    # A milder slowdown, but at a load point with little spare
    # capacity anywhere — hedges must queue behind real traffic.
    return FaultSpec.straggler(0, 2.0, t0_ms=0.0, t1_ms=horizon_ms * 4.0)


def _straggler_variants(num_isns: int) -> tuple[tuple[str, HedgePolicy], ...]:
    return (
        ("wait-all", HedgePolicy.wait_for_all()),
        ("hedge-60ms", HedgePolicy.hedged(60.0)),
    )


def _blackout_variants(num_isns: int) -> tuple[tuple[str, HedgePolicy], ...]:
    k = max(1, num_isns - 1)
    return (
        (f"k-of-n(k={k})", HedgePolicy.partial(k)),
        ("k+hedge-60ms", HedgePolicy.hedged(60.0, wait_for_k=k)),
    )


def _overload_variants(num_isns: int) -> tuple[tuple[str, HedgePolicy], ...]:
    return (
        ("wait-all", HedgePolicy.wait_for_all()),
        ("hedge-25ms-x2", HedgePolicy.hedged(25.0, max_hedges_per_query=2)),
    )


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="healthy-baseline",
            description="no faults; mitigation overhead on a healthy cluster",
            qps=300.0,
            make_fault=_no_fault,
            make_variants=_straggler_variants,
        ),
        Scenario(
            name="one-straggler",
            description="one ISN 4x slow all run; hedging routes around it",
            qps=300.0,
            make_fault=_one_straggler,
            make_variants=_straggler_variants,
        ),
        Scenario(
            name="rolling-blackout",
            description="ISNs crash one after another (rolling restart)",
            qps=300.0,
            make_fault=_rolling_blackout,
            make_variants=_blackout_variants,
        ),
        Scenario(
            name="overloaded-hedging",
            description="slowdown under high load; prices aggressive hedging",
            qps=600.0,
            make_fault=_overload_slowdown,
            make_variants=_overload_variants,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a shipped scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(
            f"unknown scenario {name!r}; known scenarios: {known}"
        ) from None


def list_scenarios() -> Sequence[Scenario]:
    """The shipped scenarios, in registry order."""
    return tuple(SCENARIOS.values())
