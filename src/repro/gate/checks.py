"""The gate's check registry: the paper's headline claims as code.

Each :class:`GateCheck` declares (a) which deterministic experiment
cells it needs — expressed as :class:`~repro.exec.spec.CellSpec`
values so the runner can dedupe them across checks and execute them
through the :mod:`repro.exec` pool and cache — and (b) how to reduce
the executed results to banded :class:`~repro.gate.bands.Measurement`
values.

Registered checks:

``demand_distribution``
    Section 2 workload shape, re-derived from the demand sample of a
    simulated trace: mean ~13.5 ms, median ~3.6 ms, >82 % of queries
    under 15 ms, 2-8 % over 80 ms, p99 at least 10x the mean.
``policy_ordering_p99``
    Section 4.2 (Figure 4): p99 of TPC <= TP <= AP <= Sequential at
    every gate load, with small multiplicative tolerances.
``policy_ordering_p999``
    Section 4.2 (Figure 5): the same chain on p99.9 at moderate and
    high load.  (At low load AP's indiscriminate parallelism is
    harmless, so the paper's chain only binds once load builds.)
``tpc_tail_budget``
    Absolute and baseline-relative budgets on TPC's own tail — the
    regression tripwire for the TPC policy and simulator.
``cluster_consistency``
    Section 4.4 (Figure 8): the aggregator of a many-ISN cluster is
    slower than any single ISN, its p99 maps to a much higher per-ISN
    percentile, and per-ISN behaviour stays consistent with the
    single-server cell.
``perf_budget``
    Determinism of the simulator hot path on a synthetic workload (no
    expensive workload build): its event count is pinned exactly and
    its wall time recorded.  Throughput is judged by ``python -m
    repro.perf``, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..config import ClusterConfig, ServerConfig
from ..errors import ConfigError
from ..exec.spec import CellSpec, spec_hash
from ..perf.scenarios import HotpathResult, run_hotpath_benchmark
from ..sim.metrics import DistributionStats, distribution_stats
from .bands import Band, Measurement

if TYPE_CHECKING:  # pragma: no cover
    from .runner import GateContext

__all__ = [
    "GATE_SEED",
    "GateScale",
    "GateCheck",
    "CHECKS",
    "check_names",
    "scale_for_mode",
    "demand_measurements",
    "ordering_measurements",
    "cluster_measurements",
    "hotpath_measurements",
    "run_hotpath_benchmark",
    "ClusterProbe",
    "ClusterProbeSpec",
]

#: Seed of every gate experiment (distinct from the benchmark seed so
#: gate cells never alias benchmark cells in the shared cache).
GATE_SEED = 93

#: Policies of the ordering chain, best tail first (paper Figures 4-5).
ORDERING_POLICIES: tuple[str, ...] = ("TPC", "TP", "AP", "Sequential")

#: Multiplicative slack per adjacent pair of the chain.  The Sequential
#: margin is huge, so its tolerance is the tightest.
P99_PAIR_TOLERANCE: Mapping[str, float] = {
    "TPC/TP": 1.08,
    "TP/AP": 1.08,
    "AP/Sequential": 1.05,
}
P999_PAIR_TOLERANCE: Mapping[str, float] = {
    "TPC/TP": 1.10,
    "TP/AP": 1.10,
    "AP/Sequential": 1.08,
}


@dataclass(frozen=True)
class GateScale:
    """Sample sizes of one gate mode (deterministic given the mode)."""

    mode: str
    n_requests: int
    qps_grid: tuple[float, ...]
    cluster_isns: int
    cluster_queries: int
    hotpath_requests: int
    seed: int = GATE_SEED

    @property
    def mid_qps(self) -> float:
        """The moderate-load operating point most checks anchor on."""
        return self.qps_grid[len(self.qps_grid) // 2]


_SCALES: dict[str, GateScale] = {
    "fast": GateScale(
        mode="fast",
        n_requests=4_000,
        qps_grid=(150.0, 450.0, 750.0),
        cluster_isns=8,
        cluster_queries=600,
        hotpath_requests=6_000,
    ),
    "full": GateScale(
        mode="full",
        n_requests=20_000,
        qps_grid=(150.0, 450.0, 750.0),
        cluster_isns=16,
        cluster_queries=2_000,
        hotpath_requests=20_000,
    ),
}


def scale_for_mode(mode: str) -> GateScale:
    """The :class:`GateScale` of ``"fast"`` or ``"full"``."""
    try:
        return _SCALES[mode]
    except KeyError:
        raise ConfigError(
            f"unknown gate mode {mode!r}; expected one of {sorted(_SCALES)}"
        ) from None


@dataclass(frozen=True)
class GateCheck:
    """One registered fidelity or performance check."""

    name: str
    description: str
    paper_ref: str
    cells: Callable[[GateScale], tuple[CellSpec, ...]]
    evaluate: Callable[["GateContext"], list[Measurement]]


def _gate_cell(scale: GateScale, policy: str, qps: float) -> CellSpec:
    """One canonical gate cell (default workload, shipped table)."""
    from ..experiments.scenarios import (
        DEFAULT_SEARCH_TARGET_TABLE,
        default_workload_spec,
    )

    return CellSpec.for_experiment(
        default_workload_spec(),
        policy,
        qps,
        scale.n_requests,
        scale.seed,
        target_table=DEFAULT_SEARCH_TARGET_TABLE,
    )


def _ordering_cells(scale: GateScale) -> tuple[CellSpec, ...]:
    """The (policy, load) cells shared by every fidelity check."""
    return tuple(
        _gate_cell(scale, policy, qps)
        for policy in ORDERING_POLICIES
        for qps in scale.qps_grid
    )


# ---------------------------------------------------------------------------
# demand_distribution


def demand_measurements(stats: DistributionStats) -> list[Measurement]:
    """Band the Section 2 demand statistics of a simulated sample.

    The bands allow for two effects the pool statistics do not show:
    sampling (the gate sees a finite trace, not the pool) and the
    per-execution lognormal demand jitter, which lifts the sample mean
    slightly above the pool's calibrated 13.47 ms.
    """
    ref = "PAPER '2.1-2.4"
    return [
        Measurement(
            "demand_mean_ms",
            stats.mean_ms,
            Band(lo=11.5, hi=16.5),
            paper_ref=f"{ref}: mean 13.47 ms",
        ),
        Measurement(
            "demand_median_ms",
            stats.median_ms,
            Band(lo=2.8, hi=4.4),
            paper_ref=f"{ref}: median ~3.6 ms",
        ),
        Measurement(
            "demand_short_fraction",
            stats.short_fraction,
            Band(lo=0.82, unit="fraction"),
            paper_ref=f"{ref}: >85% of queries under 15 ms",
        ),
        Measurement(
            "demand_long_fraction",
            stats.long_fraction,
            Band(lo=0.02, hi=0.08, unit="fraction"),
            paper_ref=f"{ref}: ~4% of queries over 80 ms",
        ),
        Measurement(
            "demand_p99_over_mean",
            stats.p99_over_mean,
            Band(lo=10.0, unit="ratio"),
            paper_ref=f"{ref}: p99 ~200 ms = 15x mean",
        ),
        Measurement(
            "demand_p99_over_median",
            stats.p99_over_median,
            Band(lo=30.0, hi=90.0, unit="ratio"),
            paper_ref=f"{ref}: p99 = 56x median",
        ),
    ]


def _evaluate_demand(ctx: "GateContext") -> list[Measurement]:
    cell = _gate_cell(ctx.scale, "TPC", ctx.scale.mid_qps)
    result = ctx.result(cell)
    return demand_measurements(distribution_stats(result.demands_ms))


# ---------------------------------------------------------------------------
# policy ordering


def ordering_measurements(
    label: str,
    tails_ms: Mapping[str, Mapping[float, float]],
    loads: Sequence[float],
    tolerances: Mapping[str, float],
    paper_ref: str,
) -> list[Measurement]:
    """Band the pairwise tail-latency chain TPC <= TP <= AP <= Sequential.

    ``tails_ms`` maps policy -> load -> tail latency; each adjacent
    pair of the chain yields one ratio measurement per load, banded at
    the pair's tolerance.  The raw per-policy tails ride along as
    informational measurements so a failing ratio can be read in
    context.
    """
    measurements: list[Measurement] = []
    for qps in loads:
        for policy in ORDERING_POLICIES:
            measurements.append(
                Measurement(
                    f"{label}@{qps:g}:{policy}",
                    tails_ms[policy][qps],
                    None,
                )
            )
        for faster, slower in zip(ORDERING_POLICIES, ORDERING_POLICIES[1:]):
            pair = f"{faster}/{slower}"
            ratio = tails_ms[faster][qps] / tails_ms[slower][qps]
            measurements.append(
                Measurement(
                    f"{label}_ratio@{qps:g}:{pair}",
                    ratio,
                    Band(hi=tolerances[pair], unit="ratio"),
                    paper_ref=paper_ref,
                )
            )
    return measurements


def _tails(
    ctx: "GateContext", loads: Sequence[float], percentile_attr: str
) -> dict[str, dict[float, float]]:
    tails: dict[str, dict[float, float]] = {}
    for policy in ORDERING_POLICIES:
        tails[policy] = {}
        for qps in loads:
            result = ctx.result(_gate_cell(ctx.scale, policy, qps))
            tails[policy][qps] = getattr(result.summary, percentile_attr)
    return tails


def _evaluate_ordering_p99(ctx: "GateContext") -> list[Measurement]:
    loads = ctx.scale.qps_grid
    return ordering_measurements(
        "p99",
        _tails(ctx, loads, "p99_ms"),
        loads,
        P99_PAIR_TOLERANCE,
        "PAPER '4.2 Fig. 4: TPC holds the lowest p99 at every load",
    )


def _evaluate_ordering_p999(ctx: "GateContext") -> list[Measurement]:
    # Low load excluded: AP's indiscriminate parallelism only hurts
    # the extreme tail once the server is contended (Figure 5).
    loads = ctx.scale.qps_grid[1:]
    return ordering_measurements(
        "p999",
        _tails(ctx, loads, "p999_ms"),
        loads,
        P999_PAIR_TOLERANCE,
        "PAPER '4.2 Fig. 5: TPC dominates the p99.9 chain under load",
    )


# ---------------------------------------------------------------------------
# tpc_tail_budget


def _evaluate_tpc_budget(ctx: "GateContext") -> list[Measurement]:
    scale = ctx.scale
    mid, top = scale.mid_qps, scale.qps_grid[-1]
    at_mid = ctx.result(_gate_cell(scale, "TPC", mid)).summary
    at_top = ctx.result(_gate_cell(scale, "TPC", top)).summary
    ref = "PAPER '4.2: TPC holds ~100 ms p99 through moderate/heavy load"
    return [
        Measurement(
            f"tpc_p99@{mid:g}",
            at_mid.p99_ms,
            Band(hi=120.0, rel_lo=0.75, rel_hi=1.25),
            paper_ref=ref,
            baseline_key=True,
        ),
        Measurement(
            f"tpc_p999@{mid:g}",
            at_mid.p999_ms,
            Band(hi=170.0, rel_lo=0.65, rel_hi=1.35),
            paper_ref=ref,
            baseline_key=True,
        ),
        Measurement(
            f"tpc_p99@{top:g}",
            at_top.p99_ms,
            Band(hi=170.0, rel_lo=0.75, rel_hi=1.25),
            paper_ref=ref,
            baseline_key=True,
        ),
        Measurement(
            f"tpc_mean@{mid:g}",
            at_mid.mean_ms,
            Band(hi=12.0, rel_lo=0.8, rel_hi=1.2),
            paper_ref="PAPER '4.2: parallelism leaves the mean near-minimal",
            baseline_key=True,
        ),
    ]


# ---------------------------------------------------------------------------
# cluster_consistency


@dataclass(frozen=True)
class ClusterProbeSpec:
    """Declarative description of the gate's cluster run.

    Not a :class:`CellSpec` — a cluster run spans many coupled per-ISN
    simulations — but hashable the same way, so its summary can be
    memoised in the :mod:`repro.exec` payload cache and a warm gate
    run skips the cluster simulation entirely.
    """

    policy_name: str
    qps: float
    n_queries: int
    num_isns: int
    seed: int

    @property
    def content_hash(self) -> str:
        """Stable cache key (same spec, same hash, any process)."""
        return spec_hash(self)


@dataclass(frozen=True)
class ClusterProbe:
    """The compact summary of one cluster run the gate judges."""

    aggregator_p99_ms: float
    isn_p99_ms: float
    isn_percentile_at_aggregator_p99: float


def run_cluster_probe(ctx: "GateContext", spec: ClusterProbeSpec) -> ClusterProbe:
    """Execute the cluster run and reduce it to a :class:`ClusterProbe`."""
    from ..cluster import run_cluster_experiment
    from ..experiments.scenarios import DEFAULT_SEARCH_TARGET_TABLE

    result = run_cluster_experiment(
        ctx.workload(),
        spec.policy_name,
        spec.qps,
        spec.n_queries,
        spec.seed,
        cluster_config=ClusterConfig(num_isns=spec.num_isns),
        target_table=DEFAULT_SEARCH_TARGET_TABLE,
        workers=ctx.workers,
    )
    agg_p99 = result.aggregator_percentile(99)
    return ClusterProbe(
        aggregator_p99_ms=agg_p99,
        isn_p99_ms=result.isn_percentile(99),
        isn_percentile_at_aggregator_p99=result.isn_percentile_of_latency(
            agg_p99
        ),
    )


def cluster_measurements(
    probe: ClusterProbe, single_isn_p99_ms: float
) -> list[Measurement]:
    """Band the cluster run against the single-ISN cell."""
    ref = "PAPER '4.4 Fig. 8"
    return [
        Measurement(
            "cluster_agg_p99_over_isn_p99",
            probe.aggregator_p99_ms / probe.isn_p99_ms,
            Band(lo=1.0, unit="ratio"),
            paper_ref=f"{ref}: the aggregator waits for its slowest ISN",
        ),
        Measurement(
            "cluster_isn_pct_at_agg_p99",
            probe.isn_percentile_at_aggregator_p99,
            Band(lo=99.0, hi=100.0, unit="percentile"),
            paper_ref=f"{ref}(b): aggregator p99 ~ ISN p99.8",
        ),
        Measurement(
            "cluster_isn_p99_over_single",
            probe.isn_p99_ms / single_isn_p99_ms,
            Band(lo=0.6, hi=1.4, unit="ratio"),
            paper_ref=f"{ref}: per-ISN behaviour matches the single-ISN run",
        ),
    ]


def _evaluate_cluster(ctx: "GateContext") -> list[Measurement]:
    scale = ctx.scale
    probe_spec = ClusterProbeSpec(
        policy_name="TPC",
        qps=scale.mid_qps,
        n_queries=scale.cluster_queries,
        num_isns=scale.cluster_isns,
        seed=scale.seed,
    )
    probe = ctx.memoise_payload(
        f"gate-cluster-{probe_spec.content_hash}",
        lambda: run_cluster_probe(ctx, probe_spec),
        expect=ClusterProbe,
    )
    single = ctx.result(_gate_cell(scale, "TPC", scale.mid_qps))
    return cluster_measurements(probe, single.summary.p99_ms)


# ---------------------------------------------------------------------------
# perf_budget
#
# The hot-path benchmark lives in repro.perf.scenarios (the perf
# harness's ``server_under_load`` scenario) and is imported above.  The
# gate judges fidelity and determinism, so it pins the benchmark's
# event count; ``python -m repro.perf`` judges its throughput
# (``perf.server_under_load.events_per_s``, best of three) against the
# same baseline file.  The gate seed equals repro.perf's HOTPATH_SEED;
# both are asserted equal by the test suite.


def hotpath_measurements(result: HotpathResult) -> list[Measurement]:
    """Band the hot-path benchmark: an exact event count.

    The event count is bit-deterministic: any drift means the engine's
    scheduling semantics changed.  The wall time is recorded only.
    """
    return [
        Measurement(
            "hotpath_events_run",
            float(result.events_run),
            Band(rel_lo=0.999, rel_hi=1.001, unit="events"),
            paper_ref="deterministic event count of the synthetic trace",
            baseline_key=True,
        ),
        Measurement("hotpath_wall_time_s", result.wall_time_s, None),
    ]


def _evaluate_hotpath(ctx: "GateContext") -> list[Measurement]:
    return hotpath_measurements(
        run_hotpath_benchmark(ctx.scale.hotpath_requests, ctx.scale.seed)
    )


# ---------------------------------------------------------------------------
# registry

CHECKS: dict[str, GateCheck] = {
    check.name: check
    for check in (
        GateCheck(
            name="demand_distribution",
            description="Section 2 demand-distribution shape bands",
            paper_ref="PAPER '2.1-2.4",
            cells=lambda s: (_gate_cell(s, "TPC", s.mid_qps),),
            evaluate=_evaluate_demand,
        ),
        GateCheck(
            name="policy_ordering_p99",
            description="p99 chain TPC <= TP <= AP <= Sequential per load",
            paper_ref="PAPER '4.2 Fig. 4",
            cells=_ordering_cells,
            evaluate=_evaluate_ordering_p99,
        ),
        GateCheck(
            name="policy_ordering_p999",
            description="p99.9 chain at moderate/high load",
            paper_ref="PAPER '4.2 Fig. 5",
            cells=_ordering_cells,
            evaluate=_evaluate_ordering_p999,
        ),
        GateCheck(
            name="tpc_tail_budget",
            description="absolute + baseline-relative budgets on TPC tails",
            paper_ref="PAPER '4.2",
            cells=lambda s: (
                _gate_cell(s, "TPC", s.mid_qps),
                _gate_cell(s, "TPC", s.qps_grid[-1]),
            ),
            evaluate=_evaluate_tpc_budget,
        ),
        GateCheck(
            name="cluster_consistency",
            description="cluster aggregator vs single-ISN consistency",
            paper_ref="PAPER '4.4 Fig. 8",
            cells=lambda s: (_gate_cell(s, "TPC", s.mid_qps),),
            evaluate=_evaluate_cluster,
        ),
        GateCheck(
            name="perf_budget",
            description="simulator hot-path event count (determinism)",
            paper_ref="sim/engine + sim/server hot path",
            cells=lambda s: (),
            evaluate=_evaluate_hotpath,
        ),
    )
}


def check_names() -> list[str]:
    """All registered check names, in registry order."""
    return list(CHECKS)
