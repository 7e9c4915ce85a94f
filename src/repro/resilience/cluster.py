"""The shared-engine cluster runner, with optional faults and hedging.

:func:`run_shared_resilient` simulates every ISN of a cluster on one
engine and one clock.  It serves every cluster run that is not
dispatched to the process-parallel per-ISN decomposition: healthy
wait-for-all runs (the paper's Figure 8), faulted runs and hedged runs
alike.  Faults are wall-clock windows on the shared clock and hedges
move replicas between ISNs, so those runs cannot decompose into
independent per-ISN simulations.  All shared randomness (trace,
arrivals, demand jitters) is drawn by the caller —
:func:`repro.cluster.cluster.run_cluster_experiment` — so a run with
no-op options reproduces the decomposed layout bit for bit.

Replica bookkeeping
-------------------
Each logical query fans out one *shard replica* per ISN; shard ``s`` of
query ``q`` is primarily served by ISN ``s`` under rid ``q``, so a
primary replica needs no record: the per-server completion callback
already knows its shard.  A hedge re-issues a lagging shard to a
secondary ISN (the least-loaded healthy node) under a fresh rid, and
only hedges are recorded, so a shard can have up to two live replicas —
a *tied pair*.  The first member of the pair to complete reports to the
aggregator under the shard's id; with ``tie_cancel`` the other member is
withdrawn through :meth:`repro.sim.server.Server.cancel_request`, and
its executed work is charged to ``wasted_work_ms``.  Per-query hedge
timers exist only when hedging is enabled, and per-node live-replica
maps only when the fault spec has blackouts to kill replicas with.

A blackout can kill a shard's last live replica after the query's one
hedge timer fired; with both hedging and blackouts on, such a kill
re-arms the timer, which re-issues these *orphaned* shards first.
"""

from __future__ import annotations

import numpy as np

from ..config import ClusterConfig, PolicyConfig, ServerConfig
from ..core.target_table import TargetTable
from ..errors import ConfigError, SimulationError
from ..policies.registry import make_policy
from ..search.workload import SearchWorkload
from ..sim.engine import Engine, EventHandle
from ..sim.load import LoadMetric
from ..sim.metrics import ResilienceStats
from ..sim.request import Request, RequestState
from ..sim.server import Server
from ..cluster.aggregator import Aggregator
from ..cluster.cluster import ClusterExperimentResult
from .faults import FaultKind, FaultSpec
from .hedging import HedgePolicy

__all__ = ["run_shared_resilient"]

#: Request states a replica can still be withdrawn from.
_LIVE = (RequestState.QUEUED, RequestState.RUNNING)


def run_shared_resilient(
    workload: SearchWorkload,
    policy_name: str,
    qps: float,
    ccfg: ClusterConfig,
    scfg: ServerConfig,
    policy_config: PolicyConfig | None,
    target_table: TargetTable | None,
    load_metric: LoadMetric,
    logical,
    arrivals: np.ndarray,
    jitters: list[np.ndarray],
    fault_spec: FaultSpec | None = None,
    hedge_policy: HedgePolicy | None = None,
) -> ClusterExperimentResult:
    """Run a cluster, faulted and/or hedged or not, on one shared engine.

    ``logical``, ``arrivals`` and ``jitters`` are the pre-drawn shared
    randomness (see module docstring).  The result carries
    :class:`ResilienceStats` unless both options are no-ops.  Raises
    :class:`ConfigError` when the configuration cannot terminate
    (blackouts under strict wait-for-all with no hedging).
    """
    fspec = fault_spec if fault_spec is not None else FaultSpec.none()
    hpolicy = hedge_policy if hedge_policy is not None else HedgePolicy()
    num_isns = ccfg.num_isns
    n_queries = len(logical)
    fspec.validate_for(num_isns)
    wait_k = hpolicy.effective_k(num_isns)
    hedging = hpolicy.hedging_enabled
    blackouts = fspec.has_blackouts
    slowdowns = any(w.kind == FaultKind.SLOWDOWN for w in fspec.windows)
    if blackouts and wait_k == num_isns and not hedging:
        raise ConfigError(
            "blackout windows under strict wait-for-all aggregation can "
            "drop a shard forever; enable hedging or set wait_for_k < "
            "num_isns"
        )

    engine = Engine()
    aggregator = Aggregator(
        num_isns, ccfg.network_overhead_ms, wait_for_k=wait_k
    )
    #: Hedge rid -> (qid, shard) it answers for.
    hedge_of: dict[int, tuple[int, int]] = {}
    #: (rid, node) of one member of a tied pair -> (other member, its node).
    tied: dict[tuple[int, int], tuple[Request, int]] = {}
    #: Armed hedge timer per query still waiting for it.
    timers: dict[int, EventHandle] = {}
    #: Live replicas per node keyed by rid (blackout kills only).
    node_live: list[dict[int, Request]] | None = (
        [{} for _ in range(num_isns)] if blackouts else None
    )
    #: Hedging under blackouts only: each query's hedge-timer arguments
    #: (to re-arm the timer after a kill), and the latest hedge per
    #: (qid, shard) (to tell whether a shard still has a live replica).
    rearm: dict[int, tuple[Request, np.ndarray, list]] | None = (
        {} if hedging and blackouts else None
    )
    last_hedge: dict[tuple[int, int], Request] = {}

    stats = {
        "hedges_issued": 0,
        "hedged_queries": 0,
        "hedge_wins": 0,
        "timeout_fires": 0,
        "cancelled_replicas": 0,
        "dropped_replicas": 0,
        "redundant_completions": 0,
        "wasted_work_ms": 0.0,
        "useful_work_ms": 0.0,
    }

    servers: list[Server] = []
    for isn in range(num_isns):
        policy = make_policy(
            policy_name,
            speedup_book=workload.speedup_book,
            group_weights=workload.group_weights,
            target_table=target_table,
            policy_config=policy_config,
            load_metric=load_metric,
        )

        def on_isn_complete(request: Request, isn: int = isn) -> None:
            _on_replica_complete(request, isn)

        servers.append(
            Server(
                scfg,
                policy,
                engine=engine,
                completion_callback=on_isn_complete,
            )
        )

    def _cancel(request: Request, node: int, cause: str) -> None:
        work_done = servers[node].cancel_request(request, cause=cause)
        if node_live is not None:
            node_live[node].pop(request.rid, None)
        stats["cancelled_replicas"] += 1
        stats["wasted_work_ms"] += work_done

    def _on_replica_complete(request: Request, node: int) -> None:
        qid, shard = request.rid, node
        hedge = hedge_of.get(qid)
        if hedge is not None:
            qid, shard = hedge
        if node_live is not None:
            node_live[node].pop(request.rid, None)
        seen, answered = aggregator.progress(qid)
        if shard in seen:
            # The tied partner already delivered this shard's result
            # (tie cancellation disabled or too late to stop this one).
            stats["redundant_completions"] += 1
            stats["wasted_work_ms"] += request.demand_ms
            return
        emitted_now = aggregator.on_isn_complete(qid, engine.now, shard)
        if answered:
            # Delivered, but after the aggregator had already answered
            # (wait-for-k < n): the work bought nothing user-visible.
            stats["wasted_work_ms"] += request.demand_ms
        else:
            stats["useful_work_ms"] += request.demand_ms
        if hedge is not None:
            stats["hedge_wins"] += 1
        if hedging and hpolicy.tie_cancel:
            partner = tied.get((request.rid, node))
            if partner is not None and partner[0].state in _LIVE:
                _cancel(*partner, cause="hedge-superseded")
        if emitted_now:
            timer = timers.pop(qid, None)
            if timer is not None:
                timer.cancel()

    # -- fault transitions ---------------------------------------------
    # Scheduled before the fan-outs so same-instant transitions resolve
    # first; arrival-time fault checks are time-based anyway.

    def _on_blackout_edge(isn: int, t_ms: float) -> None:
        if not fspec.is_blacked_out(isn, t_ms):
            return  # window closed; the node simply takes traffic again
        for request in list(node_live[isn].values()):
            if request.state not in _LIVE:  # pragma: no cover - guard
                continue
            _cancel(request, isn, cause="blackout")
            if rearm is not None:
                _rearm_hedge_timer(request, isn)

    def _orphaned(qid: int, shard: int, primaries: list) -> bool:
        """True when no replica of the shard is live any more."""
        return all(
            r is None or r.state not in _LIVE
            for r in (primaries[shard], last_hedge.get((qid, shard)))
        )

    def _rearm_hedge_timer(killed: Request, node: int) -> None:
        # A query's hedge timer fires once; a replica killed after that
        # would leave its shard unserved forever, so arm the timer again
        # while the query still waits for a shard with no live replica.
        qid, shard = hedge_of.get(killed.rid, (killed.rid, node))
        if qid in timers:
            return
        seen, answered = aggregator.progress(qid)
        request, jitter, primaries = rearm[qid]
        if answered or shard in seen or not _orphaned(qid, shard, primaries):
            return
        _arm_hedge_timer(request, jitter, primaries, engine.now)

    for t, isn in fspec.transition_times(FaultKind.BLACKOUT):
        engine.schedule_at(
            t, lambda isn=isn, t=t: _on_blackout_edge(isn, t)
        )
    for t, isn in fspec.transition_times(FaultKind.DEGRADED):
        engine.schedule_at(
            t,
            lambda isn=isn, t=t: servers[isn].set_worker_limit(
                fspec.worker_limit(isn, t)
            ),
        )

    # -- hedging --------------------------------------------------------

    hedge_rid = max((r.rid for r in logical), default=0) + 1  # fresh rids

    def _pick_secondary(shard: int | None, t_ms: float) -> int | None:
        """Least-loaded healthy node other than ISN ``shard``."""
        best: int | None = None
        best_load = -1
        for isn in range(num_isns):
            if isn == shard or fspec.is_blacked_out(isn, t_ms):
                continue
            load = servers[isn].total_active_threads
            if best is None or load < best_load:
                best, best_load = isn, load
        return best

    def _arm_hedge_timer(
        request: Request,
        jitter: np.ndarray,
        primaries: list[Request | None],
        from_ms: float,
    ) -> None:
        timers[request.rid] = engine.schedule_at(
            from_ms + float(hpolicy.hedge_timeout_ms),
            lambda: _on_hedge_timer(request, jitter, primaries),
        )

    def _on_hedge_timer(
        request: Request, jitter: np.ndarray, primaries: list[Request | None]
    ) -> None:
        nonlocal hedge_rid
        qid = request.rid
        del timers[qid]
        # The answer cancels the timer, so the query is still unanswered.
        seen, _ = aggregator.progress(qid)
        stats["timeout_fires"] += 1
        now = engine.now
        shards: list[int] | range = range(num_isns)
        orphans: list[int] = []
        if rearm is not None:
            # Shards a blackout left without a live replica go first.
            orphans = [
                s
                for s in shards
                if s not in seen and _orphaned(qid, s, primaries)
            ]
            shards = orphans + [s for s in shards if s not in orphans]
        issued = 0
        for shard in shards:
            if shard in seen:
                continue
            if issued >= hpolicy.max_hedges_per_query:
                break
            # An orphaned shard may go back to its own ISN once healthy.
            secondary = _pick_secondary(
                None if shard in orphans else shard, now
            )
            if secondary is None:
                continue
            hedge = Request(
                rid=hedge_rid,
                demand_ms=float(
                    request.demand_ms
                    * jitter[shard]
                    * fspec.demand_multiplier(secondary, now)
                ),
                predicted_ms=request.predicted_ms,
                speedup=request.speedup,
            )
            hedge_rid += 1
            hedge_of[hedge.rid] = (qid, shard)
            primary = primaries[shard]
            if primary is not None:
                tied[(hedge.rid, secondary)] = (primary, shard)
                tied[(qid, shard)] = (hedge, secondary)
            if node_live is not None:
                node_live[secondary][hedge.rid] = hedge
            if rearm is not None:
                last_hedge[(qid, shard)] = hedge
            servers[secondary].submit(hedge)
            issued += 1
        stats["hedges_issued"] += issued
        if issued:
            stats["hedged_queries"] += 1
        if (
            orphans
            and issued >= hpolicy.max_hedges_per_query
            and any(_orphaned(qid, s, primaries) for s in orphans)
        ):
            # The budget ran out before every orphaned shard was re-issued.
            _arm_hedge_timer(request, jitter, primaries, now)

    # -- fan-out --------------------------------------------------------

    for request, at, jitter in zip(logical, arrivals, jitters):
        at_ms = float(at)
        replicas: list[Request | None] = []
        for isn in range(num_isns):
            if blackouts and fspec.is_blacked_out(isn, at_ms):
                replicas.append(None)
                continue
            demand = request.demand_ms * jitter[isn]
            if slowdowns:
                demand *= fspec.demand_multiplier(isn, at_ms)
            replicas.append(
                Request(
                    rid=request.rid,
                    demand_ms=float(demand),
                    predicted_ms=request.predicted_ms,
                    speedup=request.speedup,
                )
            )

        def fan_out(
            at_ms: float = at_ms,
            reps: list[Request | None] = replicas,
            request: Request = request,
            jitter: np.ndarray = jitter,
        ) -> None:
            qid = request.rid
            aggregator.begin(qid, at_ms)
            for isn, replica in enumerate(reps):
                if replica is None:
                    stats["dropped_replicas"] += 1
                    continue
                if node_live is not None:
                    node_live[isn][qid] = replica
                servers[isn].submit(replica)
            if hedging:
                _arm_hedge_timer(request, jitter, reps, at_ms)
                if rearm is not None:
                    rearm[qid] = (request, jitter, reps)

        engine.schedule_at(at_ms, fan_out)

    # -- drive ----------------------------------------------------------

    while aggregator.completed < n_queries:
        if not engine.step():
            raise SimulationError(
                f"engine drained with {aggregator.completed}/{n_queries} "
                "queries aggregated; a blackout likely dropped more "
                "shards than wait_for_k tolerates and no hedge recovered "
                "them"
            )
    # Drain remaining events (late replicas, timers) so the wasted-work
    # and late-completion accounting covers the whole run.
    while engine.step():
        pass

    resilience = None
    if not (fspec.is_noop and hpolicy.is_noop(num_isns)):
        k_coverages = aggregator.k_coverages
        resilience = ResilienceStats(
            queries=n_queries,
            num_isns=num_isns,
            late_completions=aggregator.late_completions,
            k_coverage_mean=(
                float(np.mean(k_coverages)) if k_coverages else 0.0
            ),
            **stats,
        )
    return ClusterExperimentResult(
        policy_name=policy_name,
        qps=qps,
        num_isns=num_isns,
        aggregator_latencies_ms=np.asarray(aggregator.latencies_ms),
        isn_latencies_ms=np.asarray(aggregator.isn_latencies_ms),
        isn_recorders=[s.recorder for s in servers],
        resilience=resilience,
    )
