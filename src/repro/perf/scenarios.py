"""Benchmark scenarios for the simulation hot path.

Scenarios at increasing integration depth:

``engine_only``
    A schedule/cancel storm on a bare :class:`~repro.sim.engine.Engine`
    — every callback schedules its successor and cancels a decoy event,
    leaving retired entries in the heap as the server's completion
    re-arms do.  Exercises push, pop, lazy skip and automatic heap
    compaction with no server logic in the way.
``server_under_load``
    The synthetic hot-path benchmark: hand made requests with
    lognormal demands over a three-group speedup book, scheduled by AP
    at 500 qps.  No workload build, no predictor — the wall clock is
    pure simulator.  This module is the single home of that benchmark;
    the gate's ``perf_budget`` check pins its event count and its timed
    ``perf`` check judges its throughput.
``tracing_overhead``
    The hot-path benchmark run bare and then with the
    :mod:`repro.obs` observability layer attached — budgets the
    enabled-path penalty of tracing (the disabled path is covered by
    the goldens staying bit-identical).
``end_to_end_cell``
    One :func:`repro.exec.run_cell` over a tiny search workload —
    corpus build, predictor training and simulation included — the
    shape every figure benchmark pays per cell.

Event counts are bit-deterministic given ``(size, seed)``; only wall
time varies across machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from ..config import ServerConfig
from ..errors import ConfigError

__all__ = [
    "HOTPATH_SEED",
    "HotpathResult",
    "run_hotpath_benchmark",
    "ScenarioSpec",
    "SCENARIOS",
    "run_engine_only",
    "run_server_under_load",
    "run_tracing_overhead",
    "run_end_to_end_cell",
]

#: Seed of the hot-path benchmark; equals the gate seed, so the gate's
#: ``perf_budget`` and ``perf`` checks run the same trace.
HOTPATH_SEED = 93


@dataclass(frozen=True)
class HotpathResult:
    """Outcome of the synthetic simulator hot-path benchmark."""

    n_requests: int
    events_run: int
    wall_time_s: float

    @property
    def events_per_s(self) -> float:
        """Engine callbacks executed per wall-clock second."""
        return self.events_run / self.wall_time_s

    @property
    def requests_per_s(self) -> float:
        """Simulated requests completed per wall-clock second."""
        return self.n_requests / self.wall_time_s


def run_hotpath_benchmark(
    n_requests: int, seed: int = HOTPATH_SEED, observation=None
) -> HotpathResult:
    """Time the discrete-event hot path on a synthetic workload.

    Builds the cheapest faithful exercise of the simulator — hand-made
    requests with lognormal demands over a three-group speedup book,
    scheduled by AP (load feedback and mid-flight degree decisions, no
    predictor) — so callers can budget events/sec without paying the
    multi-second search-workload build.  The event count is
    bit-deterministic given ``(n_requests, seed)``; only the wall
    clock varies across machines.

    ``observation`` (a :class:`repro.obs.Observation`) attaches the
    observability layer before the run — the knob behind the
    ``tracing_overhead`` scenario, which budgets exactly this delta.
    """
    from ..core.speedup import SpeedupBook, SpeedupProfile
    from ..policies.registry import make_policy
    from ..rng import RngFactory
    from ..sim.client import OpenLoopClient
    from ..sim.engine import Engine
    from ..sim.request import Request
    from ..sim.server import Server

    book = SpeedupBook(
        [
            SpeedupProfile([1.0, 1.05, 1.08, 1.11, 1.14, 1.16]),
            SpeedupProfile([1.0, 1.4, 1.6, 1.8, 1.95, 2.05]),
            SpeedupProfile([1.0, 1.8, 2.5, 3.2, 3.7, 4.1]),
        ]
    )
    rngs = RngFactory(seed)
    demands = rngs.get("trace").lognormal(1.3, 1.3, size=n_requests)
    requests = [
        Request(i, float(d), float(d), book.profiles[book.group_of(float(d))])
        for i, d in enumerate(demands)
    ]
    policy = make_policy(
        "AP", speedup_book=book, group_weights=[0.6, 0.3, 0.1]
    )
    engine = Engine()
    server = Server(ServerConfig(), policy, engine=engine)
    if observation is not None:
        observation.attach(server)
    client = OpenLoopClient(server)
    started = time.perf_counter()
    client.schedule_trace(engine, requests, 500.0, rngs.get("arrivals"))
    server.run_to_completion(n_requests)
    return HotpathResult(
        n_requests=n_requests,
        events_run=engine.events_run,
        wall_time_s=max(time.perf_counter() - started, 1e-9),
    )


def run_engine_only(size: int, seed: int = HOTPATH_SEED) -> dict[str, float]:
    """Schedule/cancel storm on a bare engine.

    Each fired event schedules its successor and cancels a previously
    scheduled decoy — the retired entries a server's completion re-arms
    leave behind, which motivate lazy retirement plus compaction.
    Roughly half of all scheduled events are cancelled, so the run also
    counts heap compactions.
    """
    from collections import deque

    from ..rng import RngFactory
    from ..sim.engine import Engine

    rng = RngFactory(seed).get("engine_only")
    tick_delays = rng.uniform(0.1, 1.0, size=size + 16)
    # Decoys sit far in the future, so cancelling them leaves garbage
    # in the heap (the server's completion re-arm does the same) and
    # automatic compaction actually triggers.
    decoy_delays = rng.uniform(100.0, 200.0, size=size + 16)
    engine = Engine()
    decoys: deque = deque()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1
        if fired >= size:
            while decoys:
                decoys.popleft().cancel()
            return
        decoys.append(engine.schedule(float(decoy_delays[fired]), _noop))
        if len(decoys) > 8:
            decoys.popleft().cancel()
        engine.schedule(float(tick_delays[fired]), tick)

    def _noop() -> None:
        pass

    engine.schedule(0.0, tick)
    started = time.perf_counter()
    engine.run()
    wall = max(time.perf_counter() - started, 1e-9)
    return {
        "size": float(size),
        "events_run": float(engine.events_run),
        "wall_time_s": wall,
        "events_per_s": engine.events_run / wall,
        "compactions": float(engine.compactions),
    }


def run_server_under_load(
    size: int, seed: int = HOTPATH_SEED
) -> dict[str, float]:
    """The hot-path benchmark as a perf scenario."""
    result = run_hotpath_benchmark(size, seed)
    return {
        "size": float(size),
        "events_run": float(result.events_run),
        "wall_time_s": result.wall_time_s,
        "events_per_s": result.events_per_s,
        "requests_per_s": result.requests_per_s,
    }


def run_tracing_overhead(
    size: int, seed: int = HOTPATH_SEED
) -> dict[str, float]:
    """Observability-layer cost on the hot path: observed vs bare.

    Runs the ``server_under_load`` benchmark twice — once bare, once
    with a full :class:`repro.obs.Observation` attached (tracer,
    metrics, span substrate) — and reports the events/sec penalty of
    the enabled path.  The disabled path is covered elsewhere (goldens
    and gate event counts are bit-identical without an observation);
    this scenario budgets the *enabled* path, which the obs layer keeps
    under a 15 % penalty.  Both runs execute the identical event trace
    (``events_run`` matches by construction).
    """
    from ..obs.observe import Observation

    # Interleave bare/observed repeats and keep the best of each, so
    # the penalty compares the two variants' noise floors instead of
    # whatever the machine was doing during one particular run.
    run_hotpath_benchmark(min(size, 2_000), seed)  # warm-up
    baseline: HotpathResult | None = None
    observed: HotpathResult | None = None
    observation = Observation()
    for _ in range(3):
        bare = run_hotpath_benchmark(size, seed)
        if baseline is None or bare.events_per_s > baseline.events_per_s:
            baseline = bare
        observation = Observation()
        traced = run_hotpath_benchmark(size, seed, observation=observation)
        if observed is None or traced.events_per_s > observed.events_per_s:
            observed = traced
    assert baseline is not None and observed is not None
    if observed.events_run != baseline.events_run:
        raise ConfigError(
            "tracing changed the event trace: "
            f"{observed.events_run} != {baseline.events_run} events"
        )
    penalty = 1.0 - observed.events_per_s / baseline.events_per_s
    return {
        "size": float(size),
        "events_run": float(observed.events_run),
        "wall_time_s": observed.wall_time_s,
        "events_per_s": observed.events_per_s,
        "baseline_events_per_s": baseline.events_per_s,
        "penalty_fraction": penalty,
        "events_traced": float(len(observation.tracer.events)),
    }


def run_end_to_end_cell(
    size: int, seed: int = HOTPATH_SEED
) -> dict[str, float]:
    """One uncached ``run_cell`` over a tiny search workload.

    Measures the full per-cell pipeline — corpus generation, predictor
    training, trace sampling, simulation — the cost every figure
    benchmark pays per grid point.  The workload disk cache is disabled
    in the spec and the in-process memo is evicted up front, so every
    repeat pays the cold build.  ``build_s`` times that build alone and
    ``cell_s`` the ``run_cell`` that follows on the warm memo;
    ``wall_time_s`` is their sum.
    """
    from ..exec.pool import forget_workload, memoised_workload, run_cell
    from ..exec.spec import CellSpec
    from ..experiments.scenarios import TINY_TARGET_TABLE, TINY_WORKLOAD_SPEC

    wspec = replace(TINY_WORKLOAD_SPEC, use_workload_cache=False)
    spec = CellSpec.for_experiment(
        wspec,
        "TPC",
        300.0,
        n_requests=size,
        seed=seed,
        target_table=TINY_TARGET_TABLE,
    )
    forget_workload(wspec)
    started = time.perf_counter()
    memoised_workload(wspec)
    built = time.perf_counter()
    result = run_cell(spec, cache=None)
    finished = time.perf_counter()
    wall = max(finished - started, 1e-9)
    return {
        "size": float(size),
        "wall_time_s": wall,
        "requests_per_s": size / wall,
        "build_s": built - started,
        "cell_s": finished - built,
        "p99_ms": result.summary.p99_ms,
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered benchmark scenario."""

    name: str
    runner: Callable[[int, int], Mapping[str, float]]
    fast_size: int
    full_size: int
    #: Key of the throughput metric judged against the baseline.
    throughput_key: str = "events_per_s"

    def size_for(self, fast: bool) -> int:
        return self.fast_size if fast else self.full_size


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="engine_only",
            runner=run_engine_only,
            fast_size=30_000,
            full_size=120_000,
        ),
        ScenarioSpec(
            name="server_under_load",
            runner=run_server_under_load,
            fast_size=6_000,
            full_size=20_000,
        ),
        ScenarioSpec(
            name="tracing_overhead",
            runner=run_tracing_overhead,
            fast_size=6_000,
            full_size=20_000,
        ),
        ScenarioSpec(
            name="end_to_end_cell",
            runner=run_end_to_end_cell,
            fast_size=300,
            full_size=1_000,
            throughput_key="requests_per_s",
        ),
    )
}

