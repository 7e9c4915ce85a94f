"""Frozen configuration objects and the model's fixed constants.

A parameter is a dataclass field only when some caller sets it; the
paper's fixed numbers are upper-case constants, which cache keys hash
(:func:`constants`).  The defaults reproduce the paper's setup: a
24-hardware-thread ISN with 28 worker threads, a maximum intra-query
parallelism degree of 6 (4 for the finance server), an 80 ms "long
query" threshold, and the three parallelism-efficiency groups of
Figure 2 (<30 ms, 30-80 ms, >80 ms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError

__all__ = [
    "ServerConfig",
    "SearchWorkloadConfig",
    "PredictorConfig",
    "PolicyConfig",
    "TargetTableConfig",
    "ClusterConfig",
    "DEFAULT_GROUP_BOUNDS_MS",
    "LONG_QUERY_MS",
    "SHORT_QUERY_MS",
    "constants",
]

#: The long-query threshold (ms) of Sections 2 and 4.6, read by Pred, the
#: LongT load metric, predictor precision/recall and demand statistics.
LONG_QUERY_MS = 80.0

#: The short-query threshold (ms) of Section 2's statistics ("more than
#: 85 % of queries under 15 ms").
SHORT_QUERY_MS = 15.0

#: Group boundaries of Figure 2: short (<30 ms), mid (30-80 ms), long (>80 ms).
DEFAULT_GROUP_BOUNDS_MS: tuple[float, ...] = (30.0, LONG_QUERY_MS)

#: Spare-capacity signals TPC's correction may ramp into (Section 3.2).
CORRECTION_RESOURCE_SIGNALS: tuple[str, ...] = ("idle_workers", "idle_hardware")

#: Sampling period (ms) of the CPU-utilisation performance counter
#: (Section 4.6 uses 25 ms via Windows PDH).
CPU_SAMPLE_INTERVAL_MS = 25.0
#: Exponential-moving-average weight of a new CPU utilisation sample.
CPU_EMA_ALPHA = 0.5


@dataclass(frozen=True)
class ServerConfig:
    """Hardware and worker-pool model of one index-serving node (ISN).

    Mirrors the testbed of Section 4.1: two 6-core SMT processors give 24
    hardware threads, the worker pool holds 28 threads (a worker may
    occasionally block on I/O), and the OS time-shares worker threads on
    the available hardware contexts.
    """

    hardware_threads: int = 24
    #: Physical cores behind the SMT contexts (two 6-core sockets).
    physical_cores: int = 12
    #: Marginal throughput of the second SMT context on a core: running
    #: 24 threads on 12 cores yields 12 * (1 + factor) core-equivalents,
    #: not 24.  0.35 is a typical SMT yield for search-style workloads.
    smt_marginal_throughput: float = 0.35
    worker_threads: int = 28
    max_parallelism: int = 6
    #: Extra sequential work (ms) charged each time a request's degree is
    #: raised mid-flight, modelling task re-partitioning/synchronisation.
    rampup_penalty_ms: float = 0.5

    def __post_init__(self) -> None:
        if self.hardware_threads < 1:
            raise ConfigError("hardware_threads must be >= 1")
        if not 1 <= self.physical_cores <= self.hardware_threads:
            raise ConfigError(
                "physical_cores must be in [1, hardware_threads]"
            )
        if self.worker_threads < 1:
            raise ConfigError("worker_threads must be >= 1")
        if not 1 <= self.max_parallelism <= self.worker_threads:
            raise ConfigError(
                "max_parallelism must be in [1, worker_threads], got "
                f"{self.max_parallelism} with {self.worker_threads} workers"
            )
        for name in ("smt_marginal_throughput", "rampup_penalty_ms"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")

    def total_throughput(self, active_threads: int) -> float:
        """Aggregate execution rate (core-equivalents) of ``active_threads``.

        The first ``physical_cores`` threads run at full speed; SMT
        siblings add only ``smt_marginal_throughput`` each; threads
        beyond ``hardware_threads`` add nothing (they time-share).
        """
        if active_threads <= self.physical_cores:
            return float(active_threads)
        smt = min(active_threads, self.hardware_threads) - self.physical_cores
        return self.physical_cores + self.smt_marginal_throughput * smt

    @property
    def capacity_core_equivalents(self) -> float:
        """Peak aggregate execution rate of the machine."""
        return self.total_throughput(self.hardware_threads)


#: Zipf exponent of the term-frequency distribution.
ZIPF_EXPONENT = 1.1
#: Keyword-count range of the hard mixture (inclusive).
HARD_KEYWORDS: tuple[int, int] = (4, 12)
#: Easy queries sample the ranks past ``easy_skip_top`` with this
#: exponent.
QUERY_ZIPF_EXPONENT = 0.8
#: Serial work per query (parsing + top-k rescoring), in work units.
SERIAL_WORK_UNITS = 900.0
#: Per-task dispatch overhead, in work units.
TASK_OVERHEAD_UNITS = 30.0
#: Scoring cost per (matched document, term) hit, relative to a
#: traversal cost of 1 per posting entry.
SCORE_COST_PER_HIT = 4.0
#: Lognormal sigma of per-request demand jitter (same query replayed
#: twice does not take exactly the same time on a real server).
EXECUTION_NOISE_SIGMA = 0.08
#: Top-k results returned per query.
TOP_K = 10
#: Calibration target from Section 2 of the paper: mean demand (ms).
TARGET_MEAN_MS = 13.47


@dataclass(frozen=True)
class SearchWorkloadConfig:
    """Synthetic web-search corpus, index and query-mix parameters.

    The defaults are tuned (see ``repro.search.calibrate``) so the
    resulting service-demand distribution matches the paper's published
    statistics: mean 13.47 ms, >85 % of queries under 15 ms, ~4 % of
    queries over 80 ms, and a 99th-percentile demand near 200 ms.
    """

    num_documents: int = 24_000
    vocabulary_size: int = 6_000
    #: Mean document length in tokens (lognormal).
    mean_doc_length: int = 180
    doc_length_sigma: float = 0.4
    #: Probability that a generated query is a "hard" query drawn from
    #: the long-query mixture (many keywords over popular terms).
    hard_query_fraction: float = 0.06
    #: Keyword-count range of the easy mixture (inclusive).
    easy_keywords: tuple[int, int] = (1, 4)
    #: Number of most-popular vocabulary ranks hard queries draw from.
    hard_term_pool: int = 300
    #: Easy queries skip this many top ranks (users rarely search bare
    #: stopwords).
    easy_skip_top: int = 30
    #: Lognormal sigma of the hidden per-query ranking-cost factor:
    #: second-phase ranking work that index statistics cannot see.
    #: This is the structural source of prediction error (Section 2.5).
    hidden_cost_sigma: float = 0.28
    #: A small fraction of queries take a "surprise" ranking path whose
    #: cost departs wildly from what features suggest (deep second-phase
    #: reranking, rewriting).  These produce the genuinely-long-but-
    #: predicted-short queries that dominate the 99.9th percentile.
    surprise_fraction: float = 0.09
    surprise_sigma: float = 1.5
    #: Size of one parallel task in work units (task-pool granularity).
    task_grain_units: float = 600.0

    def __post_init__(self) -> None:
        if self.num_documents < 1 or self.vocabulary_size < 2:
            raise ConfigError("corpus dimensions must be positive")
        if not 0 <= self.hard_query_fraction <= 1:
            raise ConfigError("hard_query_fraction must be in [0, 1]")
        lo, hi = self.easy_keywords
        if not 1 <= lo <= hi:
            raise ConfigError("easy_keywords must satisfy 1 <= lo <= hi")
        # The query generator samples keywords without replacement, so
        # each mixture needs at least as many drawable terms as its
        # longest query. A hard pool above the vocabulary is clipped.
        if not 0 <= self.easy_skip_top < self.vocabulary_size:
            raise ConfigError("easy_skip_top must be in [0, vocabulary_size)")
        if self.easy_keywords[1] > self.vocabulary_size - self.easy_skip_top:
            raise ConfigError(
                "easy_keywords[1] must be <= vocabulary_size - easy_skip_top"
            )
        if self.hard_term_pool < 1:
            raise ConfigError("hard_term_pool must be >= 1")
        if self.mean_doc_length < 1:
            raise ConfigError("mean_doc_length must be >= 1")
        for name in ("doc_length_sigma", "hidden_cost_sigma", "surprise_sigma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        if not 0 <= self.surprise_fraction <= 1:
            raise ConfigError("surprise_fraction must be in [0, 1]")
        if not 0 < self.task_grain_units < math.inf:
            raise ConfigError("task_grain_units must be finite and > 0")


#: Boosted-tree shrinkage: each tree contributes this share of its fit.
LEARNING_RATE = 0.1
#: Fewest training rows a regression-tree leaf may hold.
MIN_SAMPLES_LEAF = 8
#: AP cost model: weight of the delay a query's extra threads impose
#: on queued queries (calibrated so degrees match Table 2's bands:
#: 3-6T at 150 QPS collapsing to 1-2T at 600 QPS).
AP_INTERFERENCE_WEIGHT = 0.25
#: TPC: how often (ms) dynamic correction re-checks an over-target
#: request that could not yet be ramped to the maximum degree.
CORRECTION_RECHECK_MS = 5.0


@dataclass(frozen=True)
class PredictorConfig:
    """Gradient-boosted-tree execution-time predictor hyperparameters.

    Matches the operating point of the predictor of [21] as reported in
    Section 2.5: L1 error near 14 ms with recall ~0.86 and precision
    ~0.91 for the ``LONG_QUERY_MS`` threshold.
    """

    num_trees: int = 300
    max_depth: int = 5
    subsample: float = 0.8

    def __post_init__(self) -> None:
        if self.num_trees < 1:
            raise ConfigError("num_trees must be >= 1")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if not 0 < self.subsample <= 1:
            raise ConfigError("subsample must be in (0, 1]")


@dataclass(frozen=True)
class PolicyConfig:
    """Shared knobs of the parallelism policies of Table 1."""

    #: Fixed degree Pred assigns to predicted-long queries (paper: 3 for
    #: web search, 2 for finance).
    pred_fixed_degree: int = 3
    #: RampUp interval (ms) between degree increments.
    rampup_interval_ms: float = 10.0
    #: WQ-Linear: degree = clamp(max_parallelism / (1 + queue/beta)).
    wq_linear_beta: float = 1.0
    #: TPC: correction fires after ``factor * E`` of execution (paper: 1).
    correction_delay_factor: float = 1.0
    #: TPC: spare capacity a correction may use — ``"idle_workers"`` (the
    #: paper) or ``"idle_hardware"`` (idle hardware contexts, §3.2).
    correction_resource_signal: str = "idle_workers"

    def __post_init__(self) -> None:
        if self.pred_fixed_degree < 1:
            raise ConfigError("pred_fixed_degree must be >= 1")
        for name in (
            "rampup_interval_ms", "wq_linear_beta", "correction_delay_factor"
        ):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if self.correction_resource_signal not in CORRECTION_RESOURCE_SIGNALS:
            raise ConfigError(
                f"unknown correction resource signal "
                f"{self.correction_resource_signal!r}"
            )


@dataclass(frozen=True)
class TargetTableConfig:
    """Inputs of Algorithm 1 (BuildTargetTable).

    ``load_grid`` is the ascending list of load-metric breakpoints
    ``d_i``; the final entry implicitly extends to infinity.  Targets are
    initialised to ``initial_target_ms`` (the latency of an unloaded,
    fully parallelized system — the smallest target achievable) and
    greedily increased in steps of ``step_ms``.
    """

    load_grid: tuple[float, ...] = (0.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    initial_target_ms: float = 25.0
    step_ms: float = 5.0
    #: QPS levels MeasureTail sweeps, covering the production load range.
    measure_loads_qps: tuple[float, ...] = (150.0, 400.0, 650.0)
    #: Per-load weights of the tail-latency sum (uniform by default).
    measure_weights: tuple[float, ...] = (1.0, 1.0, 1.0)
    #: The percentile MeasureTail optimises.
    percentile: float = 99.0
    #: Queries simulated per MeasureTail invocation.
    queries_per_measurement: int = 4_000
    #: Safety bound on gradient-descent iterations.
    max_iterations: int = 200

    def __post_init__(self) -> None:
        grid = self.load_grid
        if len(grid) < 1 or any(b > a for a, b in zip(grid[1:], grid)):
            raise ConfigError("load_grid must be non-empty and ascending")
        for name in ("initial_target_ms", "step_ms"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        loads, weights = self.measure_loads_qps, self.measure_weights
        if not loads or not all(0 < q < math.inf for q in loads):
            raise ConfigError(
                "measure_loads_qps must be non-empty, each finite and > 0"
            )
        if len(weights) != len(loads):
            raise ConfigError("one weight per measurement load required")
        if not all(0 <= w < math.inf for w in weights) or sum(weights) <= 0:
            raise ConfigError(
                "measure_weights must be finite and >= 0 with a positive sum"
            )
        if not 0 < self.percentile < 100:
            raise ConfigError("percentile must be in (0, 100)")
        if self.queries_per_measurement < 1:
            raise ConfigError("queries_per_measurement must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    """Partition-aggregate cluster of Figure 1 / Section 4.5."""

    num_isns: int = 40
    #: Lognormal sigma of per-ISN service-demand jitter for one query
    #: (document sharding makes per-shard work similar but not equal).
    demand_jitter_sigma: float = 0.12
    #: One-way network + merge overhead added at the aggregator (ms),
    #: matching the ~2 ms average non-compute time of Section 2.2.
    network_overhead_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.num_isns < 1:
            raise ConfigError("num_isns must be >= 1")
        if not 0 <= self.demand_jitter_sigma < math.inf:
            raise ConfigError(
                f"demand_jitter_sigma must be finite and >= 0, got "
                f"{self.demand_jitter_sigma}"
            )
        if not 0 <= self.network_overhead_ms < math.inf:
            raise ConfigError(
                f"network_overhead_ms must be finite and >= 0, got "
                f"{self.network_overhead_ms}"
            )


# The finance server of Section 5.1: 10 % of requests are long with a
# service demand 9x that of a short request; the maximum parallelism
# degree is 4; request execution time is estimated near-perfectly from
# the iteration structure.
FINANCE_LONG_FRACTION = 0.10
#: With 10 ms short requests and 10 % long at 9x, 200 RPS carries
#: 3.6 concurrent requests on average — the paper reports 3.5.
FINANCE_SHORT_DEMAND_MS = 10.0
FINANCE_LONG_DEMAND_MULTIPLIER = 9.0
FINANCE_MAX_PARALLELISM = 4
#: Serial fraction of the fork-join Monte Carlo loop.
FINANCE_SERIAL_FRACTION = 0.03
#: Per-extra-thread synchronisation loss in the speedup model.
FINANCE_SYNC_LOSS_PER_THREAD = 0.01
#: Fork-join cost per extra thread per averaging iteration (ms):
#: the loop forks d tasks and joins them every iteration, which is
#: why parallelizing *short* requests wastes disproportionate CPU.
FINANCE_JOIN_OVERHEAD_MS = 0.006
#: Relative sigma of the (near-perfect) structural time estimate.
FINANCE_PREDICTION_NOISE = 0.01
#: Relative sigma of actual demand around the structural model.
FINANCE_DEMAND_NOISE = 0.02
#: Fixed degree used by the Pred baseline (paper: 2).
FINANCE_PRED_FIXED_DEGREE = 2
#: Fixed structural-cost constant: milliseconds per path-step update.
#: (A deployment would measure this once with
#: ``MonteCarloPricer.calibrate_ms_per_path_step``; experiments pin it
#: so results do not depend on host speed.)
MS_PER_PATH_STEP = 5.0e-5
#: Path-steps per request are chosen so a short request costs
#: ``FINANCE_SHORT_DEMAND_MS``: with 100 averaging steps, 10 ms = 2000 paths.
AVERAGING_STEPS = 100


def validate_group_bounds(bounds: Sequence[float]) -> tuple[float, ...]:
    """Validate ascending group boundaries and return them as a tuple."""
    result = tuple(float(b) for b in bounds)
    if any(b <= a for a, b in zip(result, result[1:])):
        raise ConfigError(f"group bounds must be strictly ascending: {result}")
    if any(b <= 0 for b in result):
        raise ConfigError(f"group bounds must be positive: {result}")
    return result


def constants() -> dict[str, object]:
    """Every upper-case constant of this module by name (cache keys hash it)."""
    return {name: globals()[name] for name in _CONSTANT_NAMES}


#: Collected once at import: a new constant is hashed with no list to edit.
_CONSTANT_NAMES = tuple(
    sorted(name for name in globals() if name.isupper() and name[0] != "_")
)
