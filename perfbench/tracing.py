"""Runtime tracer for the benchmark's traced run.

The tracer measures each layer of ``repro`` from outside: it replaces
public entry points with timing wrappers while enabled and restores the
originals when disabled, so the untraced run executes unmodified code.
Every name is patched where it is looked up, because a module that did
``from .x import f`` keeps its own binding of ``f``.

Two kinds of boundary are recorded:

* **spans** (coarse boundaries: build stages, cells, simulation runs,
  Algorithm 1 batches) keep name, start, end, parent span and cell id in
  memory and are written out when the run ends;
* **calls** (per-request boundaries: policy decisions, aggregator
  callbacks, cache reads and writes) keep only a count and a cumulative
  time.

Both kinds sit on one frame stack, so a layer's *self time* is exact: a
frame's duration minus the time of the frames nested in it.  Frames of
the benchmark's own code use the pseudo-layer ``bench`` and count as
uncovered.
"""

from __future__ import annotations

import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: The layers of ``repro`` the traced run reports, named after its packages.
LAYERS = (
    "search",
    "prediction",
    "sim",
    "policies",
    "exec",
    "cluster",
    "resilience",
    "core",
)


class Tracer:
    """Frame stack, span log and per-name counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.cell = ""
        self.events = 0
        self.compactions = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._engines: list = []
        self._cells = 0
        self._enabled_at: float | None = None

    # -- frames ---------------------------------------------------------

    def push(self, name: str, record: bool = False) -> list:
        """Open a frame; ``record`` also logs it as a span."""
        stack = self._stack
        span_id = -1
        parent = -1
        if record:
            span_id = len(self.spans)
            for frame in reversed(stack):
                if frame[3] >= 0:
                    parent = frame[3]
                    break
            self.spans.append(
                {"id": span_id, "name": name, "parent": parent, "cell": self.cell}
            )
        frame = [name, perf_counter(), 0.0, span_id]
        stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        """Close ``frame`` and any frame left open above it."""
        end = perf_counter()
        stack = self._stack
        while stack and stack[-1] is not frame:
            self._close(stack.pop(), end)
        if stack:
            self._close(stack.pop(), end)

    def _close(self, frame: list, end: float) -> None:
        name, start, child, span_id = frame
        duration = end - start
        self.self_by_name[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if span_id >= 0:
            span = self.spans[span_id]
            span["start"] = start
            span["end"] = end

    @contextmanager
    def frame(self, name: str, record: bool = False):
        """Context-manager form of :meth:`push` / :meth:`pop`."""
        frame = self.push(name, record)
        try:
            yield
        finally:
            self.pop(frame)

    def timed(self, name: str, fn, record: bool = False):
        """Wrap ``fn`` so each call is one frame called ``name``."""
        push, pop = self.push, self.pop

        def wrapper(*args, **kwargs):
            frame = push(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def cell_span(self, name: str, label, fn):
        """Wrap ``fn`` as a span that starts a new cell id.

        ``label`` receives ``fn``'s arguments and returns the cell's name.
        """
        inner = self.timed(name, fn, record=True)

        def wrapper(*args, **kwargs):
            self._cells += 1
            outer = self.cell
            self.cell = f"c{self._cells:04d}:{label(*args, **kwargs)}"
            try:
                return inner(*args, **kwargs)
            finally:
                self.cell = outer

        return wrapper

    # -- results --------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (``bench`` and unprefixed names excluded)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_by_name.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += seconds
        return out

    def work_wall_s(self) -> float:
        """Traced wall time minus the speed probe's samples."""
        return self.wall_s - self.total_s.get("bench.probe", 0.0)

    def coverage(self) -> float:
        """Share of the traced work's wall time that layer self times cover."""
        wall = self.work_wall_s()
        return sum(self.layer_self_s().values()) / wall if wall > 0 else 0.0

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "wall_s": self.wall_s,
            "work_wall_s": self.work_wall_s(),
            "layer_self_s": self.layer_self_s(),
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_by_name),
            "sim_events": self.events,
            "sim_compactions": self.compactions,
            "spans": self.spans,
        }

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def enable(self) -> None:
        """Install every probe and start the traced wall clock."""
        _install(self)
        self._enabled_at = perf_counter()

    def disable(self) -> None:
        """Stop the clock, restore every original and collect engine counts."""
        if self._enabled_at is not None:
            self.wall_s += perf_counter() - self._enabled_at
            self._enabled_at = None
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for engine in self._engines:
            self.events += engine.events_run
            self.compactions += engine.compactions
        self._engines.clear()


def _cell_label(spec, *args, **kwargs) -> str:
    return f"{spec.policy_name}@{spec.qps:g}"


def _cluster_label(workload, policy_name, qps, *args, **kwargs) -> str:
    hedged = kwargs.get("hedge_policy") is not None
    return f"cluster-{policy_name}@{qps:g}{'-hedged' if hedged else ''}"


def _install(t: Tracer) -> None:
    """Patch the public entry points of every layer (see module doc)."""
    from repro.cluster import aggregator as agg_mod
    from repro.cluster import cluster as cluster_mod
    from repro.exec import cache as cache_mod
    from repro.exec import pool as pool_mod
    from repro.exec import spec as spec_mod
    from repro.experiments import runner as runner_mod
    from repro.resilience import cluster as res_mod
    from repro.search import workload as sw
    from repro.sim import client as client_mod
    from repro.sim import engine as engine_mod
    from repro.sim import server as server_mod

    # search + prediction: the offline build, patched in the namespace
    # of repro.search.workload, which binds these names at import.
    t._patch(sw, "build_search_workload",
             t.timed("search.build", sw.build_search_workload, record=True))
    t._patch(sw, "build_corpus", t.timed("search.corpus", sw.build_corpus, record=True))
    t._patch(sw, "InvertedIndex", t.timed("search.index", sw.InvertedIndex, record=True))
    t._patch(sw, "query_feature_matrix",
             t.timed("search.features", sw.query_feature_matrix, record=True))

    generator_cls = sw.QueryGenerator

    def make_generator(*args, **kwargs):
        generator = generator_cls(*args, **kwargs)
        generator.generate = t.timed("search.query_gen", generator.generate, record=True)
        return generator

    t._patch(sw, "QueryGenerator", make_generator)

    engine_cls = sw.SearchEngine

    def make_search_engine(*args, **kwargs):
        engine = engine_cls(*args, **kwargs)
        engine.execute = t.timed("search.execute", engine.execute)
        return engine

    t._patch(sw, "SearchEngine", make_search_engine)

    predictor_cls = sw.ExecutionTimePredictor

    def make_predictor(*args, **kwargs):
        predictor = predictor_cls(*args, **kwargs)
        predictor.fit = t.timed("prediction.fit", predictor.fit, record=True)
        predictor.predict = t.timed("prediction.predict", predictor.predict, record=True)
        predictor.evaluate = t.timed(
            "prediction.evaluate", predictor.evaluate, record=True
        )
        return predictor

    t._patch(sw, "ExecutionTimePredictor", make_predictor)

    # sim: trace sampling, arrival scheduling, the event loop.
    t._patch(sw.SearchWorkload, "make_requests",
             t.timed("sim.trace_sample", sw.SearchWorkload.make_requests, record=True))
    t._patch(client_mod.OpenLoopClient, "schedule_trace",
             t.timed("sim.schedule", client_mod.OpenLoopClient.schedule_trace, record=True))
    t._patch(cluster_mod, "poisson_arrival_times",
             t.timed("sim.schedule", cluster_mod.poisson_arrival_times, record=True))
    t._patch(server_mod.Server, "run_to_completion",
             t.timed("sim.run", server_mod.Server.run_to_completion, record=True))
    t._patch(runner_mod, "run_search_experiment",
             t.timed("sim.cell", runner_mod.run_search_experiment, record=True))

    Engine = engine_mod.Engine
    engine_init = Engine.__init__

    def init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        t._engines.append(self)

    t._patch(Engine, "__init__", init)

    # The cluster runners drive engine.step themselves.  While one runs,
    # the first step of each engine opens a sim.run span (closed with
    # the enclosing cluster/resilience span) and rebinds step on the
    # instance, so later steps run unwrapped.
    original_step = Engine.step

    def first_step(self):
        self.step = types.MethodType(original_step, self)
        t.push("sim.run", record=True)
        return original_step(self)

    def with_lazy_step(fn):
        def wrapper(*args, **kwargs):
            previous = Engine.__dict__["step"]
            Engine.step = first_step
            try:
                return fn(*args, **kwargs)
            finally:
                Engine.step = previous

        return wrapper

    # policies: per-decision calls on every policy instance the
    # experiment and cluster runners construct.
    def probe_policies(make_policy):
        def wrapper(*args, **kwargs):
            policy = make_policy(*args, **kwargs)
            policy.initial_degree = t.timed(
                "policies.initial_degree", policy.initial_degree
            )
            policy.on_check = t.timed("policies.on_check", policy.on_check)
            return policy

        return wrapper

    for module in (runner_mod, cluster_mod, res_mod):
        t._patch(module, "make_policy", probe_policies(module.make_policy))

    # exec: sweeps, cells, hashing, packing and the result cache.
    for module in (pool_mod, runner_mod):
        t._patch(module, "run_sweep", t.timed("exec.sweep", module.run_sweep, record=True))
    t._patch(pool_mod, "_execute_cell",
             t.cell_span("exec.cell", _cell_label, pool_mod._execute_cell))
    content_hash = spec_mod.CellSpec.__dict__["content_hash"]
    t._patch(spec_mod.CellSpec, "content_hash",
             property(t.timed("exec.spec_hash", content_hash.fget)))
    from_recorder = spec_mod.CellResult.__dict__["from_recorder"].__func__
    t._patch(spec_mod.CellResult, "from_recorder",
             classmethod(t.timed("exec.pack", from_recorder)))

    t._patch(cache_mod.ResultCache, "get",
             t.timed("exec.cache_get", cache_mod.ResultCache.get))
    t._patch(cache_mod.ResultCache, "put",
             t.timed("exec.cache_put", cache_mod.ResultCache.put))

    # cluster + resilience: the runners, and the aggregator per replica.
    t._patch(cluster_mod, "run_cluster_experiment", t.cell_span(
        "cluster.run", _cluster_label,
        with_lazy_step(cluster_mod.run_cluster_experiment),
    ))
    t._patch(res_mod, "run_shared_resilient",
             t.timed("resilience.run", res_mod.run_shared_resilient, record=True))
    Aggregator = agg_mod.Aggregator
    t._patch(Aggregator, "on_isn_complete",
             t.timed("cluster.aggregate", Aggregator.on_isn_complete))
    t._patch(Aggregator, "begin", t.timed("cluster.begin", Aggregator.begin))

    # core: Algorithm 1 and its MeasureTail batches.
    t._patch(runner_mod, "build_search_target_table",
             t.timed("core.search", runner_mod.build_search_target_table, record=True))
    t._patch(runner_mod, "build_target_table",
             t.timed("core.build_table", runner_mod.build_target_table, record=True))
    make_batch = runner_mod.make_measure_tail_batch

    def make_measure_tail_batch(*args, **kwargs):
        return t.timed("core.measure_batch", make_batch(*args, **kwargs), record=True)

    t._patch(runner_mod, "make_measure_tail_batch", make_measure_tail_batch)
