#!/usr/bin/env python3
"""Observability tour: trace TPC under a bursty arrival process.

Runs the TPC policy on one index-serving node while an
:class:`repro.obs.Observation` records request spans, metrics and
policy decisions.  Arrivals follow a piecewise-constant rate profile
(calm -> burst -> calm), the classic trigger for queueing-dominated
tails.  Prints the metric snapshot, the tail-attribution report, and
ASCII timelines of the three slowest requests, then writes a Chrome
trace you can open at https://ui.perfetto.dev.

Run:  python examples/trace_timeline.py
"""

from repro.config import ServerConfig
from repro.experiments.scenarios import TINY_TARGET_TABLE, TINY_WORKLOAD_SPEC
from repro.policies.registry import make_policy
from repro.obs import (
    Observation,
    render_tail_report,
    render_timelines,
    slowest_spans,
    write_chrome_trace,
)
from repro.sim.arrivals import RateProfile, nonhomogeneous_arrival_times
from repro.sim.engine import Engine
from repro.rng import RngFactory
from repro.sim.server import Server

N_REQUESTS = 3_000
TRACE_PATH = "trace_timeline.json"

#: Calm -> 3x burst -> calm, repeating every 1.5 s.
BURST_PROFILE = RateProfile(rates_qps=(250.0, 750.0, 250.0), segment_ms=500.0)


def main() -> None:
    print("Building a small search workload (one-off)...")
    workload = TINY_WORKLOAD_SPEC.build()

    rngs = RngFactory(21)
    policy = make_policy(
        "TPC",
        speedup_book=workload.speedup_book,
        group_weights=workload.group_weights,
        target_table=TINY_TARGET_TABLE,
    )
    engine = Engine()
    server = Server(ServerConfig(), policy, engine=engine)

    obs = Observation()
    obs.attach(server)

    requests = workload.make_requests(N_REQUESTS, rngs.get("trace"))
    times = nonhomogeneous_arrival_times(
        N_REQUESTS, BURST_PROFILE, rngs.get("arrivals")
    )
    for request, at in zip(requests, times):
        engine.schedule_at(float(at), lambda r=request: server.submit(r))

    print(
        f"Replaying {N_REQUESTS} queries through TPC under a "
        f"{min(BURST_PROFILE.rates_qps):g}->{max(BURST_PROFILE.rates_qps):g} "
        "QPS burst profile...\n"
    )
    server.run_to_completion(N_REQUESTS)

    snap = obs.metrics()
    print("metrics:")
    for name in (
        "completions",
        "queue_depth.max",
        "running.max",
        "degree_raises",
        "queue_wait_ms.p99",
        "response_ms.p99",
        "response_ms.p99.9",
    ):
        if name in snap:
            print(f"  {name:<24} {snap[name]:10.2f}")
    print()
    print(render_tail_report(obs.tail_report()))

    slowest = slowest_spans(obs.spans(), 3)
    print()
    print("slowest 3 requests (queue wait dotted, execution hashed):")
    print()
    print(render_timelines(slowest))

    with open(TRACE_PATH, "w", encoding="utf-8") as fp:
        write_chrome_trace(fp, obs.chrome_trace(process_name="TPC burst"))
    print(f"\nchrome trace written to {TRACE_PATH}")
    print(
        "load it at https://ui.perfetto.dev - each request is a thread "
        "track with queued/run phases."
    )


if __name__ == "__main__":
    main()
