"""Canonical experiment configurations for every paper figure/table.

Centralises the constants the evaluation section fixes: the QPS grid of
Figures 4-7, the policy sets, the default workload seed, and the
shipped target table (built once offline with Algorithm 1, exactly as
the paper computes its table offline and distributes it to all ISNs).
It also holds the one tiny workload recipe (and its target table) that
the demos, the perf harness and the tests share.
"""

from __future__ import annotations

from ..config import PredictorConfig, SearchWorkloadConfig
from ..core.target_table import TargetTable
from ..exec.pool import memoised_workload
from ..exec.spec import WorkloadSpec
from ..search.workload import SearchWorkload

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_QPS_GRID",
    "FIGURE_POLICIES",
    "DEFAULT_SEARCH_TARGET_TABLE",
    "DEFAULT_FINANCE_TARGET_TABLE",
    "DEFAULT_RPS_GRID_FINANCE",
    "default_workload",
    "default_workload_spec",
    "default_target_table",
    "TINY_WORKLOAD_SPEC",
    "TINY_TARGET_TABLE",
]

#: Load grid of Figures 10-11 (requests per second, finance server).
DEFAULT_RPS_GRID_FINANCE: tuple[float, ...] = (50, 100, 200, 300, 400, 500, 600)

#: Seed of the canonical workload used across benchmarks.
DEFAULT_SEED = 2016

#: Load grid of Figures 4, 5, 6, 7 (queries per second).
DEFAULT_QPS_GRID: tuple[float, ...] = (50, 150, 300, 450, 600, 750, 900)

#: Policy sets per figure.
FIGURE_POLICIES: dict[str, tuple[str, ...]] = {
    "fig4": ("TPC", "AP", "Pred", "WQ-Linear", "Sequential"),
    "fig5": ("TPC", "AP", "Pred", "WQ-Linear", "Sequential"),
    "fig6": ("TPC", "TP"),
    "table2": ("TPC", "AP", "Pred"),
    "fig8": ("TPC", "AP", "Pred", "Sequential"),
}

#: The shipped target table: (LongT load, target ms) pairs produced by
#: an offline Algorithm 1 search over the canonical workload (see
#: benchmarks/bench_target_table.py, which regenerates it).  Loads are
#: in equivalent-active-long-threads; targets grow with load because a
#: busier server has less spare capacity to promise tight completions.
DEFAULT_SEARCH_TARGET_TABLE = TargetTable(
    [
        (0.0, 25.0),
        (3.0, 30.0),
        (6.0, 40.0),
        (10.0, 60.0),
        (16.0, 65.0),
        (28.0, 70.0),
    ]
)

#: Target table for the finance server, produced by the same offline
#: Algorithm 1 search (multi-start, measure loads 100-600 RPS).  It is
#: nearly flat and *tight*: with a 26 ms target, every long request
#: (~27 ms at the maximum degree 4) is maximally parallelized and every
#: short request runs sequentially — this workload has enough headroom
#: that backing off parallelism never pays within the measured range.
DEFAULT_FINANCE_TARGET_TABLE = TargetTable(
    [
        (0.0, 26.0),
        (4.0, 26.0),
        (8.0, 26.0),
        (16.0, 26.0),
        (28.0, 30.0),
    ]
)


#: Tiny search workload for demos, the perf harness's end-to-end cell
#: and tests: a 3 000-document corpus that builds in about a second.
TINY_WORKLOAD_SPEC = WorkloadSpec.search(
    seed=11,
    config=SearchWorkloadConfig(
        num_documents=3_000,
        vocabulary_size=1_500,
        mean_doc_length=120,
        hard_term_pool=150,
        easy_skip_top=15,
    ),
    predictor_config=PredictorConfig(num_trees=60, max_depth=4),
    pool_size=1_200,
)

#: Load-dependent target table for TP/TPC over :data:`TINY_WORKLOAD_SPEC`.
TINY_TARGET_TABLE = TargetTable([(0, 40), (8, 65), (16, 90)])


def default_workload(
    seed: int = DEFAULT_SEED, pool_size: int = 12_000
) -> SearchWorkload:
    """The canonical calibrated search workload.

    Built through the :mod:`repro.exec` per-process workload memo, so
    it is the very copy that inline cell execution reuses.  The memo is
    **per process**: each of ``N`` exec-pool workers rebuilds its own
    copy from :func:`default_workload_spec` on first use — budget
    roughly one workload's memory footprint per worker.
    """
    return memoised_workload(default_workload_spec(seed, pool_size))


def default_workload_spec(
    seed: int = DEFAULT_SEED, pool_size: int = 12_000
) -> WorkloadSpec:
    """Declarative recipe for :func:`default_workload`.

    Hand this to :mod:`repro.exec` instead of a built workload when
    declaring sweeps directly; workers rebuild (and memoise) the
    workload locally from the recipe.
    """
    return WorkloadSpec.search(
        seed=seed,
        config=SearchWorkloadConfig(),
        predictor_config=PredictorConfig(),
        pool_size=pool_size,
    )


def default_target_table() -> TargetTable:
    """The shipped offline-built target table."""
    return DEFAULT_SEARCH_TARGET_TABLE

