"""Declarative experiment cells: what to simulate, not how.

A :class:`CellSpec` describes one (policy, load) simulation cell — the
workload to build, the policy and its knobs, the load point, the seed
and the request count — as a frozen, picklable value object.  Because a
cell is *data*, it can be shipped to a worker process, hashed into a
cache key, or compared for equality; the live ``Server``/``Engine``
objects it expands into never cross a process boundary.

:class:`WorkloadSpec` plays the same role for the expensive workload
substrate: instead of pickling a built :class:`SearchWorkload` (index,
predictor, pools), workers receive the recipe and rebuild it locally.
Workload construction is deterministic given the spec, so a rebuilt
workload is bit-identical to the original.

:class:`SweepSpec` is an ordered tuple of cells; :class:`CellResult`
is the compact, serializable outcome (latency arrays + summary) that
travels back.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..config import (
    ClusterConfig,
    PolicyConfig,
    PredictorConfig,
    SearchWorkloadConfig,
    ServerConfig,
    constants,
)
from ..core.target_table import TargetTable
from ..errors import ConfigError
from ..sim.load import LoadMetric
from ..sim.metrics import LatencyRecorder, LatencySummary

if TYPE_CHECKING:  # pragma: no cover
    from ..resilience.faults import FaultSpec
    from ..resilience.hedging import HedgePolicy

__all__ = [
    "WorkloadSpec",
    "CellSpec",
    "SweepSpec",
    "CellResult",
    "spec_hash",
]

#: Bump to invalidate every cached result when the result format or the
#: simulation semantics change incompatibly.
#: v2: cluster/resilience cell fields on CellSpec, extras on CellResult.
#: v3: cluster cells carry ``isn_pct_at_agg_p99``; no ``rampup_interval_ms``.
SPEC_SCHEMA_VERSION = 3


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-stable structure for hashing."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() round-trips doubles exactly; format stays stable.
        return repr(obj)
    if isinstance(obj, LoadMetric):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, TargetTable):
        return {"__type__": "TargetTable", "entries": _canonical(obj.entries)}
    raise ConfigError(f"cannot canonicalise {type(obj).__name__} for hashing")


def spec_hash(obj: Any) -> str:
    """Stable content hash of any spec object (hex, 16 bytes).

    The :mod:`repro.config` constants are hashed too: they parameterise
    every cell exactly as the config fields do.
    """
    fixed = {name: _canonical(value) for name, value in constants().items()}
    payload = json.dumps(
        {
            "schema": SPEC_SCHEMA_VERSION,
            "constants": fixed,
            "value": _canonical(obj),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class WorkloadSpec:
    """Recipe for (re)building a workload inside any process.

    ``kind`` selects the builder: ``"search"`` runs the full offline
    search pipeline (corpus, index, calibration, predictor), and
    ``"finance"`` assembles the Section 5.1 option-pricing workload,
    whose parameters are all :mod:`repro.config` constants.
    Builds are deterministic, so every process that evaluates the same
    spec holds an identical workload.
    """

    kind: str
    seed: int = 0
    pool_size: int = 12_000
    search_config: SearchWorkloadConfig | None = None
    predictor_config: PredictorConfig | None = None
    max_degree: int = 6
    group_bounds_ms: tuple[float, ...] | None = None
    #: Allow the builder's own on-disk intermediate cache (npz pools).
    use_workload_cache: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("search", "finance"):
            raise ConfigError(f"unknown workload kind {self.kind!r}")
        # Normalise omitted configs to their defaults so two specs that
        # build identical workloads also hash identically.
        if self.kind == "search":
            if self.search_config is None:
                object.__setattr__(self, "search_config", SearchWorkloadConfig())
            if self.predictor_config is None:
                object.__setattr__(self, "predictor_config", PredictorConfig())

    @classmethod
    def search(
        cls,
        seed: int,
        config: SearchWorkloadConfig | None = None,
        predictor_config: PredictorConfig | None = None,
        pool_size: int = 12_000,
        max_degree: int = 6,
        group_bounds_ms: tuple[float, ...] | None = None,
        use_workload_cache: bool = True,
    ) -> "WorkloadSpec":
        """Spec of a full search workload (see ``build_search_workload``)."""
        return cls(
            kind="search",
            seed=seed,
            pool_size=pool_size,
            search_config=config,
            predictor_config=predictor_config,
            max_degree=max_degree,
            group_bounds_ms=group_bounds_ms,
            use_workload_cache=use_workload_cache,
        )

    @classmethod
    def finance(cls) -> "WorkloadSpec":
        """Spec of the finance workload (deterministic)."""
        return cls(kind="finance")

    @classmethod
    def from_workload(cls, workload: object) -> "WorkloadSpec | None":
        """Derive the spec a built workload was constructed from.

        Returns ``None`` when the workload does not carry enough
        provenance to be rebuilt in another process (e.g. it was
        assembled by hand); such a workload cannot be declared as a cell.
        """
        from ..finance.workload import FinanceWorkload
        from ..search.workload import SearchWorkload

        if isinstance(workload, FinanceWorkload):
            return cls.finance()
        if isinstance(workload, SearchWorkload):
            prov = workload.provenance
            if prov is None:
                return None
            return cls.search(
                seed=prov.seed,
                config=workload.config,
                predictor_config=prov.predictor_config,
                pool_size=prov.pool_size,
                max_degree=prov.max_degree,
                group_bounds_ms=prov.group_bounds_ms,
                use_workload_cache=prov.use_cache,
            )
        return None

    def build(self):
        """Construct the workload this spec describes (deterministic)."""
        if self.kind == "finance":
            from ..finance.workload import build_finance_workload

            return build_finance_workload()
        from ..search.workload import build_search_workload

        return build_search_workload(
            seed=self.seed,
            config=self.search_config,
            predictor_config=self.predictor_config,
            pool_size=self.pool_size,
            max_degree=self.max_degree,
            group_bounds_ms=self.group_bounds_ms,
            use_cache=self.use_workload_cache,
        )

    @property
    def content_hash(self) -> str:
        """Stable hash of the recipe (same spec, same hash, any process)."""
        return spec_hash(self)


@dataclass(frozen=True)
class CellSpec:
    """One (policy, load) simulation cell, fully declared.

    Expanding a cell — building the workload, instantiating the policy
    and server, replaying the trace — is a pure function of this value,
    so executing the same spec twice (in any process) yields
    bit-identical latency series.
    """

    workload: WorkloadSpec
    policy_name: str
    qps: float
    n_requests: int
    seed: int
    #: Serialized target table ((load, target) pairs) or None.
    target_entries: tuple[tuple[float, float], ...] | None = None
    server_config: ServerConfig | None = None
    policy_config: PolicyConfig | None = None
    load_metric: LoadMetric = LoadMetric.LONG_THREADS
    prediction: str = "model"
    oracle_sigma: float = 0.0
    #: Non-None turns the cell into a cluster run (N ISNs behind an
    #: aggregator) instead of a single-server experiment.
    cluster_config: ClusterConfig | None = None
    #: Resilience options (cluster cells only); both are frozen plain
    #: data, so they participate in the content hash like every knob.
    fault_spec: "FaultSpec | None" = None
    hedge_policy: "HedgePolicy | None" = None

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigError("n_requests must be >= 1")
        if not 0 < self.qps < math.inf:
            raise ConfigError(f"qps must be finite and > 0, got {self.qps}")
        if self.prediction not in ("model", "perfect", "oracle"):
            raise ConfigError(f"unknown prediction mode {self.prediction!r}")
        if not 0 <= self.oracle_sigma < math.inf:
            raise ConfigError(
                f"oracle_sigma must be finite and >= 0, got {self.oracle_sigma}"
            )
        if self.cluster_config is not None and self.oracle_sigma != 0:
            raise ConfigError(
                f"cluster cells take no oracle noise, got oracle_sigma="
                f"{self.oracle_sigma}"
            )
        if self.cluster_config is None and (
            self.fault_spec is not None or self.hedge_policy is not None
        ):
            raise ConfigError(
                "fault_spec / hedge_policy require a cluster cell "
                "(set cluster_config)"
            )

    @classmethod
    def for_experiment(
        cls,
        workload: WorkloadSpec,
        policy_name: str,
        qps: float,
        n_requests: int,
        seed: int,
        target_table: TargetTable | None = None,
        **kwargs: Any,
    ) -> "CellSpec":
        """Build a cell, serializing a live :class:`TargetTable`."""
        entries = target_table.entries if target_table is not None else None
        return cls(
            workload=workload,
            policy_name=policy_name,
            qps=float(qps),
            n_requests=int(n_requests),
            seed=int(seed),
            target_entries=entries,
            **kwargs,
        )

    @property
    def target_table(self) -> TargetTable | None:
        """The live target table (rebuilt from its entries)."""
        if self.target_entries is None:
            return None
        return TargetTable(self.target_entries)

    @property
    def content_hash(self) -> str:
        """Cache key: identical cells hash identically in any process."""
        return spec_hash(self)


@dataclass(frozen=True)
class SweepSpec:
    """An ordered collection of independent cells (one sweep)."""

    cells: tuple[CellSpec, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigError("a sweep needs at least one cell")

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @classmethod
    def grid(
        cls,
        workload: WorkloadSpec,
        policy_names: Sequence[str],
        qps_grid: Sequence[float],
        n_requests: int,
        seed: int,
        target_table: TargetTable | None = None,
        **kwargs: Any,
    ) -> "SweepSpec":
        """The cross product behind Figures 4-7: policy-major order."""
        cells = tuple(
            CellSpec.for_experiment(
                workload, name, qps, n_requests, seed,
                target_table=target_table, **kwargs,
            )
            for name in policy_names
            for qps in qps_grid
        )
        return cls(cells)

    @property
    def content_hash(self) -> str:
        """Stable hash of the whole sweep."""
        return spec_hash(self)


@dataclass
class CellResult:
    """Compact, serializable outcome of one executed cell.

    Carries everything the paper's figures and tables read — the full
    per-request latency arrays, the headline summary, and the degree
    bookkeeping — but no live simulation objects, so it pickles cheaply
    across process boundaries and onto disk.
    """

    spec_hash: str
    policy_name: str
    qps: float
    summary: LatencySummary
    responses_ms: np.ndarray
    queueing_ms: np.ndarray
    executions_ms: np.ndarray
    demands_ms: np.ndarray
    predictions_ms: np.ndarray
    initial_degrees: np.ndarray
    max_degrees: np.ndarray
    corrected: np.ndarray
    #: Wall-clock seconds the simulation took (0.0 on a cache hit).
    wall_time_s: float = 0.0
    #: Auxiliary scalar metrics (cluster cells: resilience accounting,
    #: per-ISN percentiles).  Empty for single-server cells.
    extras: dict[str, float] = dataclasses.field(default_factory=dict)

    @classmethod
    def from_recorder(
        cls,
        spec: CellSpec,
        policy_name: str,
        recorder: LatencyRecorder,
        wall_time_s: float = 0.0,
        extras: dict[str, float] | None = None,
    ) -> "CellResult":
        """Extract the serializable outcome of a finished server run."""
        return cls(
            spec_hash=spec.content_hash,
            policy_name=policy_name,
            qps=spec.qps,
            summary=recorder.summary(),
            responses_ms=np.asarray(recorder.responses_ms, dtype=np.float64),
            queueing_ms=np.asarray(recorder.queueing_ms, dtype=np.float64),
            executions_ms=np.asarray(recorder.executions_ms, dtype=np.float64),
            demands_ms=np.asarray(recorder.demands_ms, dtype=np.float64),
            predictions_ms=np.asarray(recorder.predictions_ms, dtype=np.float64),
            initial_degrees=np.asarray(recorder.initial_degrees, dtype=np.int64),
            max_degrees=np.asarray(recorder.max_degrees, dtype=np.int64),
            corrected=np.asarray(recorder.corrected, dtype=bool),
            wall_time_s=wall_time_s,
            extras=extras if extras is not None else {},
        )
