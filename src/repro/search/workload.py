"""End-to-end search-workload assembly.

``build_search_workload`` performs the full offline pipeline of
Figure 3's offline half, all from first principles:

1. generate the corpus and build the inverted index;
2. generate a pool of queries and *execute* them to measure work (one
   bulk metering pass, :meth:`SearchEngine.execute_batch`) and compute
   their pre-execution features;
3. calibrate work units to milliseconds against the paper's statistics;
4. fit the task-pool parallel model to Figure 2 and derive per-query
   speedup profiles plus the 3-group :class:`SpeedupBook`;
5. train the boosted-tree predictor on half the pool and predict the
   other half once (which becomes the replay pool, so the predictor is
   never evaluated on queries it trained on); those predictions are
   both the pool's scheduler-visible estimates and the accuracy
   report's input.

The result, :class:`SearchWorkload`, hands the simulation everything it
needs: sampled request traces, group profiles and weights, and the
measured predictor operating point.

Steps 1-2 take about a second at the canonical size (2-vCPU x86-64
host).  Their outputs, the per-query work units and features, are one
``search-pool-<hash>.npz`` entry of the on-disk cache
(:mod:`repro.exec.cache`, which also holds the cell results), keyed by
the ``spec_hash`` of the seed, the pool size and the configuration, so
a rebuild of the same workload (another sweep worker, a later run)
skips them.  An entry that cannot be read is rebuilt and rewritten; one
that cannot be written is skipped.  ``REPRO_CACHE_DIR`` relocates the
cache and ``use_cache=False`` bypasses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from ..config import (
    EXECUTION_NOISE_SIGMA,
    SERIAL_WORK_UNITS,
    TASK_OVERHEAD_UNITS,
    PredictorConfig,
    SearchWorkloadConfig,
)
from ..core.speedup import SpeedupBook, SpeedupProfile
from ..errors import WorkloadError
from ..exec.cache import cache_dir, read_entry, write_entry
from ..exec.spec import spec_hash
from ..prediction.features import query_feature_matrix
from ..prediction.predictor import ExecutionTimePredictor, PredictorReport
from ..rng import RngFactory
from ..sim.metrics import DistributionStats
from ..sim.request import Request
from .calibrate import calibrate_workload
from .corpus import build_corpus
from .engine import SearchEngine
from .index import InvertedIndex
from .parallel import ParallelExecutionModel, fit_parallel_model
from .query import QueryGenerator

__all__ = ["SearchWorkload", "WorkloadProvenance", "build_search_workload"]


@dataclass(frozen=True)
class WorkloadProvenance:
    """The build inputs a finished workload was assembled from.

    Together with ``SearchWorkload.config`` this is enough to rebuild
    the workload bit-identically in another process — the contract the
    :mod:`repro.exec` layer relies on to ship *recipes* to pool workers
    instead of pickling live indexes.
    """

    seed: int
    pool_size: int
    max_degree: int
    group_bounds_ms: tuple[float, ...] | None
    predictor_config: PredictorConfig
    use_cache: bool


@dataclass
class SearchWorkload:
    """A calibrated, predictor-equipped search workload ready to replay."""

    config: SearchWorkloadConfig
    ms_per_unit: float
    serial_ms: float
    statistics: DistributionStats
    parallel_model: ParallelExecutionModel
    speedup_book: SpeedupBook
    group_weights: tuple[float, ...]
    predictor_report: PredictorReport
    pool_demands_ms: np.ndarray
    pool_predictions_ms: np.ndarray
    pool_profiles: list[SpeedupProfile]
    #: How this workload was built (None for hand-assembled instances);
    #: lets ``repro.exec`` rebuild it inside worker processes.
    provenance: WorkloadProvenance | None = None

    @property
    def pool_size(self) -> int:
        """Number of distinct replayable queries."""
        return len(self.pool_demands_ms)

    def make_requests(
        self,
        n: int,
        rng: np.random.Generator,
        prediction: str = "model",
        oracle_sigma: float = 0.0,
        rid_offset: int = 0,
    ) -> list[Request]:
        """Sample a replay trace of ``n`` requests from the pool.

        ``prediction`` selects the scheduler-visible execution-time
        estimate: ``"model"`` uses the trained boosted-tree predictor,
        ``"perfect"`` the true (jittered) demand, and ``"oracle"`` the
        true demand perturbed by lognormal noise ``oracle_sigma``.
        """
        if n < 1:
            raise WorkloadError(f"n must be >= 1, got {n}")
        if prediction not in ("model", "perfect", "oracle"):
            raise WorkloadError(f"unknown prediction mode {prediction!r}")
        indices = rng.integers(0, self.pool_size, size=n)
        jitter = rng.lognormal(0.0, EXECUTION_NOISE_SIGMA, size=n)
        demands = self.pool_demands_ms[indices] * jitter
        if prediction == "model":
            predictions = self.pool_predictions_ms[indices]
        elif prediction == "perfect":
            predictions = demands
        else:
            predictions = demands * rng.lognormal(0.0, oracle_sigma, size=n)
        profiles = self.pool_profiles
        return [
            Request(rid, demand, predicted, profiles[index])
            for rid, demand, predicted, index in zip(
                range(rid_offset, rid_offset + n),
                demands.tolist(),
                predictions.tolist(),
                indices.tolist(),
            )
        ]


def build_search_workload(
    seed: int,
    config: SearchWorkloadConfig | None = None,
    predictor_config: PredictorConfig | None = None,
    pool_size: int = 12_000,
    max_degree: int = 6,
    group_bounds_ms: tuple[float, ...] | None = None,
    use_cache: bool = True,
) -> SearchWorkload:
    """Run the full offline pipeline (see module docstring)."""
    cfg = config if config is not None else SearchWorkloadConfig()
    pcfg = predictor_config if predictor_config is not None else PredictorConfig()
    rngs = RngFactory(seed)

    units, features = _measured_pool(seed, cfg, pool_size, use_cache, rngs)

    # Hidden per-query ranking-cost factor: second-phase ranking work
    # that is real on the server but invisible in index statistics.
    # It lengthens the demand tail and bounds predictor accuracy,
    # matching the imperfect operating point of Section 2.5.
    if cfg.hidden_cost_sigma > 0 or cfg.surprise_fraction > 0:
        hidden_rng = rngs.get("hidden-cost")
        sigma = np.full(len(units), cfg.hidden_cost_sigma)
        if cfg.surprise_fraction > 0:
            surprised = hidden_rng.random(len(units)) < cfg.surprise_fraction
            sigma[surprised] = cfg.surprise_sigma
        hidden = hidden_rng.lognormal(-sigma**2 / 2.0, sigma)
        units = units * hidden

    calibration = calibrate_workload(units)
    scale = calibration.ms_per_unit
    demands = units * scale
    serial_ms = SERIAL_WORK_UNITS * scale

    model = fit_parallel_model(
        serial_ms=serial_ms,
        task_grain_ms=cfg.task_grain_units * scale,
        task_overhead_ms=TASK_OVERHEAD_UNITS * scale,
    )
    profiles = model.profiles(demands, serial_ms, max_degree)
    bounds = group_bounds_ms
    if bounds is None:
        book = SpeedupBook.from_samples(demands, profiles)
    else:
        book = SpeedupBook.from_samples(demands, profiles, bounds)
    weights = _group_weights(book, demands)

    # Train/eval split: even indices train, odd indices become the pool.
    train = np.arange(0, len(demands), 2)
    evaluate = np.arange(1, len(demands), 2)
    predictor = ExecutionTimePredictor(pcfg)
    predictor.fit(
        features[train], demands[train], rng=rngs.get("predictor")
    )
    predictions = predictor.predict(features[evaluate])
    report = predictor.evaluate(predictions, demands[evaluate])

    return SearchWorkload(
        config=cfg,
        ms_per_unit=scale,
        serial_ms=serial_ms,
        statistics=calibration.statistics,
        parallel_model=model,
        speedup_book=book,
        group_weights=weights,
        predictor_report=report,
        pool_demands_ms=demands[evaluate],
        pool_predictions_ms=predictions,
        pool_profiles=[profiles[i] for i in evaluate],
        provenance=WorkloadProvenance(
            seed=seed,
            pool_size=pool_size,
            max_degree=max_degree,
            group_bounds_ms=group_bounds_ms,
            predictor_config=pcfg,
            use_cache=use_cache,
        ),
    )


def _group_weights(
    book: SpeedupBook, demands: np.ndarray
) -> tuple[float, ...]:
    counts = [0] * book.num_groups
    for demand in demands:
        counts[book.group_of(float(demand))] += 1
    total = len(demands)
    return tuple(c / total for c in counts)


def _measured_pool(
    seed: int,
    cfg: SearchWorkloadConfig,
    pool_size: int,
    use_cache: bool,
    rngs: RngFactory,
) -> tuple[np.ndarray, np.ndarray]:
    """Corpus + index + pool execution, cached as one npz entry."""
    path = _pool_path(seed, cfg, pool_size) if use_cache else None
    if path is not None:
        cached = read_entry(path, _load_pool)
        if cached is not None:
            return cached

    # The index keeps what metering needs, so the corpus goes before
    # the engine packs its bitsets, the build's traced peak (DESIGN §10).
    corpus = build_corpus(cfg, rngs.get("corpus"))
    index = InvertedIndex(corpus)
    del corpus
    generator = QueryGenerator(cfg, rngs.get("queries"))
    queries = generator.generate(pool_size)
    units = SearchEngine(index).execute_batch(queries).total_units
    features = query_feature_matrix(queries, index)

    if path is not None:
        write_entry(
            path,
            lambda fh: np.savez_compressed(fh, units=units, features=features),
        )
    return units, features


def _pool_path(seed: int, cfg: SearchWorkloadConfig, pool_size: int) -> Path:
    return cache_dir() / f"search-pool-{spec_hash((seed, pool_size, cfg))}.npz"


def _load_pool(fh: IO[bytes]) -> tuple[np.ndarray, np.ndarray]:
    # Both arrays are read in full while the file is open, so a damaged
    # entry fails here, inside read_entry, and counts as a miss.
    with np.load(fh, allow_pickle=False) as data:
        return data["units"], data["features"]
