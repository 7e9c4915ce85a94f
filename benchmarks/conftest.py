"""Shared benchmark fixtures and scale knobs.

Every benchmark regenerates one paper artifact (figure or table),
prints it in the paper's row/series format, and writes the rendered
text to ``benchmarks/output/`` so EXPERIMENTS.md can cite it.

Every (policy, load) cell is declared as a :mod:`repro.exec`
:class:`~repro.exec.spec.CellSpec` and executed through ``run_sweep``
(or a forwarder such as ``run_load_sweep``) with :func:`exec_kwargs`,
so independent cells run concurrently, long runs report per-cell
liveness instead of sitting silent, every result is a
:class:`~repro.exec.spec.CellResult`, and ``REPRO_EXEC_CACHE=1`` makes a
repeated run read them from disk.  The one exception is
:func:`run_tpc_variant`: a hand-built TPC policy is a live object, not
spec data, so those few cells run directly and are never cached.

Scale knobs (environment variables):

* ``REPRO_BENCH_QUERIES``           requests per (policy, load) cell
                                     [default 20000]
* ``REPRO_BENCH_CLUSTER_QUERIES``   logical queries in the cluster run
                                     [default 6000]
* ``REPRO_BENCH_CLUSTER_ISNS``      ISNs in the cluster run [default 40]
* ``REPRO_BENCH_FAST=1``            shrink everything ~10x (CI smoke)
* ``REPRO_BENCH_WORKERS``           process-pool size for sweeps
                                     (cluster cells included)
                                     [default cpu_count - 1]
* ``REPRO_EXEC_CACHE=1``            reuse cached cell results across
                                     runs (``REPRO_EXEC_CACHE_DIR``
                                     relocates the store)

Memory note: each pool worker rebuilds and memoises the workload from
its spec, so ``N`` workers hold ``N`` copies of the inverted index and
query pools — cap ``REPRO_BENCH_WORKERS`` on memory-tight hosts.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

import pytest

from repro.config import PolicyConfig, ServerConfig
from repro.exec import CellSpec, log_progress
from repro.experiments import (
    DEFAULT_FINANCE_TARGET_TABLE,
    DEFAULT_QPS_GRID,
    DEFAULT_SEARCH_TARGET_TABLE,
    default_workload,
    default_workload_spec,
    run_load_sweep,
)
from repro.finance import build_finance_workload
from repro.policies.tpc import TPCPolicy
from repro.rng import RngFactory
from repro.sim.client import OpenLoopClient
from repro.sim.engine import Engine
from repro.sim.metrics import LatencySummary, degree_distribution
from repro.sim.server import Server

OUTPUT_DIR = Path(__file__).parent / "output"

_FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"


def bench_queries() -> int:
    """Requests per (policy, load) experiment cell."""
    default = 2_000 if _FAST else 20_000
    return int(os.environ.get("REPRO_BENCH_QUERIES", default))


def cluster_queries() -> int:
    """Logical queries in the cluster benchmark."""
    default = 800 if _FAST else 6_000
    return int(os.environ.get("REPRO_BENCH_CLUSTER_QUERIES", default))


def cluster_isns() -> int:
    """Number of ISNs in the cluster benchmark."""
    default = 8 if _FAST else 40
    return int(os.environ.get("REPRO_BENCH_CLUSTER_ISNS", default))


def qps_grid() -> tuple[float, ...]:
    """Load grid of the single-ISN figures."""
    if _FAST:
        return (150.0, 450.0, 750.0)
    return DEFAULT_QPS_GRID


def exec_kwargs() -> dict:
    """Execution-layer knobs shared by every benchmark sweep.

    Worker count resolution happens inside the pool (argument, then
    ``REPRO_BENCH_WORKERS``, then cpu count).  ``cache`` is left out, so
    the exec layer's default applies: opt-in via ``REPRO_EXEC_CACHE=1``.
    """
    return {"workers": None, "progress": log_progress}


BENCH_SEED = 71


def bench_cell(policy_name: str, qps: float, **kwargs) -> CellSpec:
    """One declared cell over the canonical workload at benchmark scale.

    ``kwargs`` are further :meth:`CellSpec.for_experiment` arguments
    (``target_table``, ``server_config``, ``prediction``, ...).
    """
    return CellSpec.for_experiment(
        default_workload_spec(), policy_name, qps, bench_queries(),
        BENCH_SEED, **kwargs,
    )


def degrees_by_class(result, use_max_degree: bool = True) -> dict:
    """Table 2 split of one cell's degrees, by true demand class.

    Percent of short and of long (true demand > 80 ms) queries run at
    degree 1-6: the highest degree reached (dynamic correction
    included), or the initial one with ``use_max_degree=False``.
    """
    degrees = result.max_degrees if use_max_degree else result.initial_degrees
    return degree_distribution(result.demands_ms, degrees, 80.0, 6)


def run_tpc_variant(workload, qps: float, policy: TPCPolicy) -> LatencySummary:
    """Run one cell whose policy is a hand-built TPC variant.

    The one direct path past :mod:`repro.exec`: a policy built with
    knobs the registry does not expose (correction timing, resource
    signal) or with its own speedup book cannot be declared as a
    ``CellSpec``, so it is neither pooled nor cached.  The cell expands
    exactly as a declared one does — ``BENCH_SEED`` trace and arrivals,
    default server, ``bench_queries()`` requests — so a variant built
    with the registry's defaults reproduces the declared TPC cell.
    """
    rngs = RngFactory(BENCH_SEED)
    engine = Engine()
    server = Server(ServerConfig(), policy, engine=engine)
    requests = workload.make_requests(bench_queries(), rngs.get("trace"))
    OpenLoopClient(server).schedule_trace(
        engine, requests, qps, rngs.get("arrivals")
    )
    server.run_to_completion(len(requests))
    return server.recorder.summary()


@pytest.fixture(scope="session")
def workload():
    """The canonical calibrated search workload."""
    return default_workload()


@pytest.fixture(scope="session")
def finance():
    """The Section 5.1 finance workload."""
    return build_finance_workload()


@pytest.fixture(scope="session")
def search_table():
    """The shipped Algorithm 1 target table."""
    return DEFAULT_SEARCH_TARGET_TABLE


@pytest.fixture(scope="session")
def finance_table():
    """The shipped finance target table."""
    return DEFAULT_FINANCE_TARGET_TABLE


@lru_cache(maxsize=1)
def _main_sweep_cached():
    """One shared sweep of the six single-ISN policies over the full
    QPS grid; Figures 4, 5 and 6 all read from it.  The 6 x len(grid)
    cells fan out across the exec process pool."""
    w = default_workload()
    return run_load_sweep(
        w,
        ["Sequential", "WQ-Linear", "AP", "Pred", "TP", "TPC"],
        qps_grid(),
        n_requests=bench_queries(),
        seed=BENCH_SEED,
        target_table=DEFAULT_SEARCH_TARGET_TABLE,
        **exec_kwargs(),
    )


@pytest.fixture(scope="session")
def main_sweep():
    """Shared policy x load sweep (computed once per session)."""
    return _main_sweep_cached()


@pytest.fixture(scope="session")
def finance_server_config():
    """Finance server: same box, maximum parallelism degree 4."""
    return ServerConfig(max_parallelism=4)


@pytest.fixture(scope="session")
def finance_policy_config():
    """Pred uses fixed degree 2 on the finance server."""
    return PolicyConfig(pred_fixed_degree=2)


def emit(name: str, text: str) -> None:
    """Print a reproduced artifact and archive it under output/."""
    print()
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
