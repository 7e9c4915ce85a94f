"""Latency recording, percentiles and tail-latency summaries.

The paper reports the 99th- and 99.9th-percentile of query response
time (Section 4.1).  :class:`LatencyRecorder` collects per-request
outcomes from a server run; the module-level helpers compute
percentiles and the weighted tail sum used by MeasureTail in
Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .request import Request

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "DistributionStats",
    "ResilienceStats",
    "percentile",
    "weighted_tail_latency",
    "degree_distribution",
    "distribution_stats",
]


def percentile(latencies_ms: Sequence[float] | np.ndarray, p: float) -> float:
    """The ``p``-th percentile (0 < p < 100) of a latency sample."""
    arr = np.asarray(latencies_ms, dtype=np.float64)
    if arr.size == 0:
        raise SimulationError("cannot take a percentile of an empty sample")
    if not 0 < p < 100:
        raise SimulationError(f"percentile must be in (0, 100), got {p}")
    return float(np.percentile(arr, p))


def weighted_tail_latency(
    samples: Sequence[Sequence[float] | np.ndarray],
    weights: Sequence[float],
    p: float,
) -> float:
    """Weighted sum of the ``p``-th percentile across several runs.

    This is the objective MeasureTail returns in Algorithm 1: a
    predefined experiment covers all production load ranges and the
    builder minimises the weighted sum of their tail latencies.
    """
    if len(samples) != len(weights):
        raise SimulationError("one weight per sample required")
    return float(
        sum(w * percentile(s, p) for s, w in zip(samples, weights))
    )


@dataclass(frozen=True)
class LatencySummary:
    """Headline statistics of one run."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    p999_ms: float
    max_ms: float

    @classmethod
    def from_latencies(
        cls, latencies_ms: Sequence[float] | np.ndarray
    ) -> "LatencySummary":
        """Headline statistics of a non-empty latency sample."""
        arr = np.asarray(latencies_ms, dtype=np.float64)
        if arr.size == 0:
            raise SimulationError("no requests recorded")
        return cls(
            count=int(arr.size),
            mean_ms=float(arr.mean()),
            p50_ms=percentile(arr, 50),
            p95_ms=percentile(arr, 95),
            p99_ms=percentile(arr, 99),
            p999_ms=percentile(arr, 99.9),
            max_ms=float(arr.max()),
        )

    def as_row(self) -> dict[str, float]:
        """Summary as a flat dict (handy for tabular reports)."""
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "max_ms": self.max_ms,
        }


@dataclass(frozen=True)
class DistributionStats:
    """Shape statistics of a millisecond sample in the paper's terms.

    Section 2 characterises the production demand distribution by its
    mean, median, tail percentile and the fractions of short (<15 ms)
    and long (>80 ms) queries; the fidelity gate re-derives the same
    statistics from simulated samples and checks them against bands.
    """

    count: int
    mean_ms: float
    median_ms: float
    p99_ms: float
    short_fraction: float
    long_fraction: float

    @property
    def p99_over_mean(self) -> float:
        """Tail heaviness: how far the 99th percentile sits above the mean."""
        return self.p99_ms / self.mean_ms

    @property
    def p99_over_median(self) -> float:
        """Tail heaviness relative to the median (paper: ~56x)."""
        return self.p99_ms / self.median_ms

    def as_row(self) -> dict[str, float]:
        """Flat dict for tabular reports and JSON export."""
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "median_ms": self.median_ms,
            "p99_ms": self.p99_ms,
            "short_fraction": self.short_fraction,
            "long_fraction": self.long_fraction,
            "p99/mean": self.p99_over_mean,
            "p99/median": self.p99_over_median,
        }


def distribution_stats(
    values_ms: Sequence[float] | np.ndarray,
    short_threshold_ms: float = 15.0,
    long_threshold_ms: float = 80.0,
) -> DistributionStats:
    """Compute :class:`DistributionStats` for a millisecond sample."""
    arr = np.asarray(values_ms, dtype=np.float64)
    if arr.size == 0:
        raise SimulationError("cannot summarise an empty sample")
    return DistributionStats(
        count=int(arr.size),
        mean_ms=float(arr.mean()),
        median_ms=float(np.median(arr)),
        p99_ms=percentile(arr, 99),
        short_fraction=float((arr < short_threshold_ms).mean()),
        long_fraction=float((arr > long_threshold_ms).mean()),
    )


@dataclass(frozen=True)
class ResilienceStats:
    """Mitigation bookkeeping of one resilient cluster run.

    Quantifies the cost/benefit trade-off of request hedging and
    partial-wait aggregation (cf. Poloczek & Ciucu; Wang, Joshi &
    Wornell): how often the hedge timer fired, how many hedges were
    issued and won, and how much replica work was thrown away by
    tied-request cancellation, blackout kills, and redundant
    completions.
    """

    #: Logical queries aggregated.
    queries: int
    num_isns: int
    #: Hedge replicas issued across all queries.
    hedges_issued: int
    #: Queries that issued at least one hedge.
    hedged_queries: int
    #: Hedges that completed before the primary replica they backed up.
    hedge_wins: int
    #: Hedge timers that fired on a still-incomplete query.
    timeout_fires: int
    #: Replicas withdrawn mid-flight (ties and blackout kills).
    cancelled_replicas: int
    #: Replicas never issued because the target ISN was blacked out.
    dropped_replicas: int
    #: Completions of a shard whose result was already delivered by the
    #: other member of a hedge pair (tie cancellation disabled).
    redundant_completions: int
    #: Replica completions arriving after the aggregator had already
    #: answered the query (wait-for-k < n only).
    late_completions: int
    #: Work (ms of sequential demand) executed by cancelled or
    #: redundant replicas — pure overhead of the mitigation.
    wasted_work_ms: float
    #: Work executed by replicas whose result reached the aggregator.
    useful_work_ms: float
    #: Mean over queries of (replica completions seen when the
    #: aggregator answered) / num_isns; 1.0 under wait-for-all.
    k_coverage_mean: float

    @property
    def hedge_rate(self) -> float:
        """Fraction of queries that issued at least one hedge."""
        return self.hedged_queries / self.queries if self.queries else 0.0

    @property
    def timeout_rate(self) -> float:
        """Fraction of queries whose hedge timer fired."""
        return self.timeout_fires / self.queries if self.queries else 0.0

    @property
    def wasted_work_fraction(self) -> float:
        """Wasted work as a fraction of all work executed."""
        total = self.wasted_work_ms + self.useful_work_ms
        return self.wasted_work_ms / total if total > 0 else 0.0

    def as_row(self) -> dict[str, float]:
        """Flat dict for tabular reports and JSON export."""
        return {
            "queries": self.queries,
            "num_isns": self.num_isns,
            "hedges_issued": self.hedges_issued,
            "hedged_queries": self.hedged_queries,
            "hedge_wins": self.hedge_wins,
            "timeout_fires": self.timeout_fires,
            "cancelled_replicas": self.cancelled_replicas,
            "dropped_replicas": self.dropped_replicas,
            "redundant_completions": self.redundant_completions,
            "late_completions": self.late_completions,
            "wasted_work_ms": self.wasted_work_ms,
            "useful_work_ms": self.useful_work_ms,
            "hedge_rate": self.hedge_rate,
            "timeout_rate": self.timeout_rate,
            "wasted_work_fraction": self.wasted_work_fraction,
            "k_coverage_mean": self.k_coverage_mean,
        }


@dataclass
class LatencyRecorder:
    """Accumulates completed-request outcomes from one server run.

    Stores response/queueing/execution latency, demand, prediction,
    initial and maximum parallelism degree and whether dynamic
    correction fired — everything the paper's tables and figures need.
    """

    responses_ms: list[float] = field(default_factory=list)
    queueing_ms: list[float] = field(default_factory=list)
    executions_ms: list[float] = field(default_factory=list)
    demands_ms: list[float] = field(default_factory=list)
    predictions_ms: list[float] = field(default_factory=list)
    initial_degrees: list[int] = field(default_factory=list)
    max_degrees: list[int] = field(default_factory=list)
    corrected: list[bool] = field(default_factory=list)

    def record(self, request: "Request") -> None:
        """Record one completed request.

        Hot path: the latency decompositions are computed from the raw
        timestamps directly — the very subtractions the ``Request``
        properties perform — so callers must pass completed requests.
        """
        arrival = request.arrival_ms
        start = request.start_ms
        finish = request.finish_ms
        self.responses_ms.append(finish - arrival)
        self.queueing_ms.append(start - arrival)
        self.executions_ms.append(finish - start)
        self.demands_ms.append(request.demand_ms)
        self.predictions_ms.append(request.predicted_ms)
        self.initial_degrees.append(request.initial_degree)
        self.max_degrees.append(request.max_degree_seen)
        self.corrected.append(request.corrected)

    def __len__(self) -> int:
        return len(self.responses_ms)

    @property
    def responses(self) -> np.ndarray:
        """Response times as a numpy array."""
        return np.asarray(self.responses_ms, dtype=np.float64)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile of response time."""
        return percentile(self.responses_ms, p)

    def correction_rate(self) -> float:
        """Fraction of requests whose degree was raised by correction."""
        if not self.corrected:
            return 0.0
        return sum(self.corrected) / len(self.corrected)

    def summary(self) -> LatencySummary:
        """Headline latency statistics of the run."""
        return LatencySummary.from_latencies(self.responses)


def degree_distribution(
    demands_ms: Sequence[float] | np.ndarray,
    degrees: Sequence[int] | np.ndarray,
    long_threshold_ms: float,
    max_degree: int,
) -> dict[str, list[float]]:
    """Parallelism-degree distribution by true demand class (Table 2).

    Returns ``{"short": [...], "long": [...]}`` where each list holds
    the percentage of that class executed at degree 1..max_degree.
    Pass a run's maximum degrees to count the highest degree a request
    attained (capturing dynamic correction), or its initial degrees.
    """
    counts = {"short": [0] * max_degree, "long": [0] * max_degree}
    for demand, degree in zip(demands_ms, degrees):
        key = "long" if demand > long_threshold_ms else "short"
        counts[key][min(degree, max_degree) - 1] += 1
    result: dict[str, list[float]] = {}
    for key, row in counts.items():
        total = sum(row)
        result[key] = [100.0 * c / total if total else 0.0 for c in row]
    return result
