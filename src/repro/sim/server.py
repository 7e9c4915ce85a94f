"""The ISN server model: worker pool, queue, processor sharing.

The server owns a FIFO waiting queue and a fixed pool of worker
threads.  A running request with parallelism degree ``d`` occupies
``d`` workers and progresses at rate ``S(d)`` sequential-work units per
millisecond (its true speedup), scaled by the processor-sharing factor
``min(1, C / T)`` when the total number of active threads ``T`` exceeds
the ``C`` hardware threads — modelling the OS time-sharing of Section
4.1.  Between events the remaining work of every running request is
integrated analytically (rates are piecewise constant), so the
simulation is exact, not time-stepped.

Parallelism policies plug in via three hooks: the degree chosen when a
request starts, an optional first runtime-check delay, and a check
callback that may raise the degree mid-flight (dynamic correction,
RampUp).  Raising a degree charges a configurable ramp-up penalty to
model task re-partitioning and synchronisation overhead.

Hot-path organisation (see DESIGN.md §10): each event walks the
running requests once, in running order.  Fluid accrual charges each
request ``dt * (S(d) * factor)``, and the next-completion horizon is
the least time to finish.  ``S(d)`` is cached on the request
(``service_speedup``) whenever its degree is set, and the contention
factor and aggregate throughput are tables indexed by the busy-worker
count, so no event calls into the speedup profile or the capacity
model.  The next-completion event and the CPU sampler are each one
persistent engine handle, re-armed in place (:meth:`Engine.rearm`)
rather than cancelled and scheduled anew.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from typing import TYPE_CHECKING

from ..errors import SchedulingError, SimulationError
from .engine import Engine, EventHandle
from .metrics import LatencyRecorder
from .request import Request, RequestState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import ServerConfig
    from ..policies.base import ParallelismPolicy

__all__ = ["Server"]

_EPS = 1e-9
_INF = math.inf


class Server:
    """One simulated index-serving node.

    Parameters
    ----------
    config:
        Hardware/worker-pool model.
    policy:
        The parallelism policy making degree decisions.
    engine:
        Event loop this server schedules on (shared in cluster runs).
    long_threshold_ms:
        Predicted-time threshold above which a request's threads count
        toward the LongT load metric (Section 4.6).
    """

    def __init__(
        self,
        config: "ServerConfig",
        policy: "ParallelismPolicy",
        engine: Engine | None = None,
        long_threshold_ms: float = 80.0,
        completion_callback=None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.engine = engine if engine is not None else Engine()
        self.recorder = LatencyRecorder()
        self.long_threshold_ms = float(long_threshold_ms)
        #: Optional hook invoked with each completed request (used by
        #: the cluster aggregator to observe ISN completions).
        self.completion_callback = completion_callback
        #: Optional hook invoked with each request the moment it is
        #: dispatched (degree already assigned).  This is the tracing
        #: seam of :func:`repro.sim.tracing.attach_tracer`: a single
        #: attribute-is-None test per dispatched request when disabled,
        #: so observability stays effectively free unless attached.
        self.dispatch_callback = None

        self.waiting: deque[Request] = deque()
        self.running: list[Request] = []
        self._busy_workers = 0
        self._long_threads = 0
        self._last_advance = self.engine.now
        #: The one next-completion event, re-armed in place for life.
        self._completion_handle: EventHandle = self.engine.handle(
            self._on_completion_event
        )
        #: Temporary cap on dispatchable workers (degraded-core fault
        #: windows); None means the full configured pool.
        self._worker_limit: int | None = None
        #: Requests withdrawn mid-flight via :meth:`cancel_request`.
        self.cancelled_count = 0
        #: Caches of ``total_throughput(busy)`` and the contention
        #: factor (processor-sharing slowdown of one thread: full speed
        #: up to the physical core count, ``total_throughput(T) / T``
        #: beyond), refreshed whenever ``_busy_workers`` changes.  The
        #: busy count never exceeds the worker pool, so both functions
        #: are tabulated once per server.
        workers = config.worker_threads
        physical = config.physical_cores
        self._throughput_by_busy = tuple(
            config.total_throughput(b) for b in range(workers + 1)
        )
        self._factor_by_busy = tuple(
            1.0 if b <= physical else self._throughput_by_busy[b] / b
            for b in range(workers + 1)
        )
        self._busy_throughput = 0.0
        self._factor = 1.0

        # CPU-utilisation performance counter (sampled EMA, Section 4.6).
        self._cpu_util_ema = 0.0
        self._cpu_busy_integral = 0.0
        self._cpu_window_start = self.engine.now
        self._sampler_handle: EventHandle = self.engine.handle(
            self._on_cpu_sample
        )

        self._refresh_capacity_cache()
        policy.bind(self)

    # ------------------------------------------------------------------
    # Load-metric surface read by policies (Section 4.6).
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.engine.now

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a worker (WQ-Linear's metric)."""
        return len(self.waiting)

    @property
    def running_count(self) -> int:
        """Number of requests currently executing."""
        return len(self.running)

    @property
    def total_active_threads(self) -> int:
        """AllT: total worker threads currently assigned to requests."""
        return self._busy_workers

    @property
    def active_long_threads(self) -> int:
        """LongT: threads of running requests predicted long (default
        TPC load metric; long threads persist and shape availability)."""
        return self._long_threads

    @property
    def worker_limit(self) -> int:
        """Workers currently dispatchable (may be degraded below config)."""
        if self._worker_limit is None:
            return self.config.worker_threads
        return self._worker_limit

    @property
    def idle_workers(self) -> int:
        """Spare worker threads (TPC's dynamic-correction resource)."""
        return max(0, self.worker_limit - self._busy_workers)

    @property
    def cpu_utilization(self) -> float:
        """CpuUtil: EMA of sampled utilisation, in [0, 1].

        Deliberately laggy — it aggregates a whole sampling window and
        carries EMA history — which is exactly why the paper finds it a
        poor instantaneous-load proxy (Figure 9).
        """
        return self._cpu_util_ema

    @property
    def completed_count(self) -> int:
        """Requests completed so far."""
        return len(self.recorder)

    # ------------------------------------------------------------------
    # Request lifecycle.
    # ------------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Accept a request at the current simulated time."""
        if request.state is not RequestState.CREATED:
            raise SimulationError(f"request {request.rid} already submitted")
        self._advance()
        request.arrival_ms = self.engine.now
        request.state = RequestState.QUEUED
        self.waiting.append(request)
        if self._sampler_handle.seq < 0:
            self._start_sampler()
        limit = self._worker_limit
        if self._busy_workers < (
            self.config.worker_threads if limit is None else limit
        ):
            self._dispatch()
        self._reschedule_completion()

    def _dispatch(self) -> None:
        """Start queued requests while workers are idle (FIFO)."""
        waiting = self.waiting
        policy = self.policy
        initial_degree = policy.initial_degree
        first_check_delay = policy.first_check_delay
        config = self.config
        max_parallelism = config.max_parallelism
        full_pool = config.worker_threads
        throughput_by_busy = self._throughput_by_busy
        factor_by_busy = self._factor_by_busy
        long_threshold_ms = self.long_threshold_ms
        dispatch_callback = self.dispatch_callback
        engine = self.engine
        now = engine.now
        while waiting:
            limit = self._worker_limit
            busy = self._busy_workers
            idle = (full_pool if limit is None else limit) - busy
            if idle <= 0:
                break
            request = waiting.popleft()
            degree = int(initial_degree(request, self))
            if degree < 1:
                raise SchedulingError(f"{policy.name} chose degree {degree} < 1")
            if degree > max_parallelism:
                degree = max_parallelism
            if degree > idle:
                degree = idle
            request.state = RequestState.RUNNING
            request.start_ms = now
            request.degree = degree
            request.initial_degree = degree
            request.max_degree_seen = degree
            busy += degree
            self._busy_workers = busy
            self._busy_throughput = throughput_by_busy[busy]
            self._factor = factor_by_busy[busy]
            if request.predicted_ms > long_threshold_ms:
                self._long_threads += degree
            request.service_speedup = request.speedup.speedup(degree)
            self.running.append(request)
            if dispatch_callback is not None:
                dispatch_callback(request)
            delay = first_check_delay(request, self)
            if delay is not None:
                request.check_handle = engine.schedule(
                    max(0.0, float(delay)), partial(self._on_check, request)
                )

    def _on_check(self, request: Request) -> None:
        """Runtime policy check (dynamic correction / RampUp tick)."""
        request.check_handle = None
        if request.state is not RequestState.RUNNING:
            return
        self._advance()
        new_degree, next_delay = self.policy.on_check(request, self)
        if new_degree is not None and new_degree > request.degree:
            self.raise_degree(request, int(new_degree))
        if next_delay is not None and request.state is RequestState.RUNNING:
            request.check_handle = self.engine.schedule(
                max(0.0, float(next_delay)), partial(self._on_check, request)
            )
        self._reschedule_completion()

    def raise_degree(self, request: Request, new_degree: int) -> int:
        """Raise a running request's parallelism degree mid-flight.

        The grant is clamped by idle workers and the server-wide maximum
        degree; the ramp-up penalty is charged once per increase.
        Returns the degree actually granted.
        """
        if request.state is not RequestState.RUNNING:
            raise SchedulingError(
                f"cannot change degree of non-running request {request.rid}"
            )
        self._advance()
        granted = min(
            new_degree,
            self.config.max_parallelism,
            request.degree + self.idle_workers,
        )
        if granted <= request.degree:
            return request.degree
        delta = granted - request.degree
        self._busy_workers += delta
        self._refresh_capacity_cache()
        if request.predicted_ms > self.long_threshold_ms:
            self._long_threads += delta
        request.degree = granted
        request.max_degree_seen = max(request.max_degree_seen, granted)
        request.degree_changes += 1
        request.remaining_work_ms += self.config.rampup_penalty_ms
        request.service_speedup = request.speedup.speedup(granted)
        self._reschedule_completion()
        return granted

    def set_worker_limit(self, limit: int | None) -> None:
        """Cap the dispatchable worker pool (degraded-core fault window).

        Already-running requests keep their workers — the cap only gates
        new dispatches and degree raises — so a limit below the current
        busy count drains naturally instead of preempting.  ``None``
        restores the full configured pool.
        """
        if limit is not None:
            if limit < 1:
                raise SimulationError(f"worker limit must be >= 1, got {limit}")
            limit = min(int(limit), self.config.worker_threads)
        self._advance()
        self._worker_limit = limit
        self._dispatch()
        self._reschedule_completion()

    def cancel_request(self, request: Request, cause: str | None = None) -> float:
        """Withdraw a queued or running request; returns executed work (ms).

        Frees the request's workers immediately and cancels its pending
        runtime-check event through the engine's event-cancel machinery
        (tied-request cancellation, replica kills).  Cancelled requests
        never reach the recorder or the completion callback.  ``cause``
        names why the request was withdrawn (``"hedge-superseded"``,
        ``"blackout"``, ...); it is stored on the request and surfaces
        in traces as the terminal cause.
        """
        if request.state is RequestState.QUEUED:
            try:
                self.waiting.remove(request)
            except ValueError:
                raise SimulationError(
                    f"request {request.rid} is not queued on this server"
                ) from None
            request.state = RequestState.CANCELLED
            request.finish_ms = self.now
            request.cancel_cause = cause
            self.cancelled_count += 1
            return 0.0
        if request.state is not RequestState.RUNNING:
            raise SimulationError(
                f"cannot cancel request {request.rid} in state "
                f"{request.state.value}"
            )
        if request not in self.running:
            raise SimulationError(
                f"request {request.rid} is not running on this server"
            )
        self._advance()
        work_done = max(
            0.0, request.demand_ms - max(request.remaining_work_ms, 0.0)
        )
        self._busy_workers -= request.degree
        self._refresh_capacity_cache()
        if request.predicted_ms > self.long_threshold_ms:
            self._long_threads -= request.degree
        if request.check_handle is not None:
            request.check_handle.cancel()
            request.check_handle = None
        self.running.remove(request)
        request.state = RequestState.CANCELLED
        request.finish_ms = self.now
        request.cancel_cause = cause
        self.cancelled_count += 1
        self._dispatch()
        self._reschedule_completion()
        return work_done

    def _complete(self, request: Request) -> None:
        request.state = RequestState.COMPLETED
        request.finish_ms = self.engine.now
        degree = request.degree
        busy = self._busy_workers - degree
        self._busy_workers = busy
        self._busy_throughput = self._throughput_by_busy[busy]
        self._factor = self._factor_by_busy[busy]
        if request.predicted_ms > self.long_threshold_ms:
            self._long_threads -= degree
        check_handle = request.check_handle
        if check_handle is not None:
            check_handle.cancel()
            request.check_handle = None
        self.running.remove(request)
        self.recorder.record(request)
        if self.completion_callback is not None:
            self.completion_callback(request)

    # ------------------------------------------------------------------
    # Capacity caches and fluid progress integration.
    # ------------------------------------------------------------------

    def _refresh_capacity_cache(self) -> None:
        """Recompute the throughput/contention caches after a busy change."""
        busy = self._busy_workers
        self._busy_throughput = self._throughput_by_busy[busy]
        self._factor = self._factor_by_busy[busy]

    def _advance(self) -> None:
        """Integrate remaining work of running requests up to ``now``.

        Each running request, in running order, absorbs its service
        term ``dt * (S(d) * factor)`` with a single subtraction.
        """
        now = self.engine.now
        dt = now - self._last_advance
        if dt <= 0:
            return
        self._cpu_busy_integral += dt * self._busy_throughput
        factor = self._factor
        for r in self.running:
            r.remaining_work_ms -= dt * (r.service_speedup * factor)
        self._last_advance = now

    def _reschedule_completion(self) -> None:
        """Re-arm the single next-completion event in place.

        The horizon is the minimum over running requests of the time to
        finish, ``max(remaining, 0) / (S(d) * factor)``.  With nothing
        running the event is cancelled if still pending (only
        :meth:`cancel_request` can empty the running set under it).
        """
        running = self.running
        if not running:
            handle = self._completion_handle
            if handle.seq >= 0:
                handle.cancel()
            return
        factor = self._factor
        horizon = _INF
        for request in running:
            remaining = request.remaining_work_ms
            if remaining < 0.0:
                remaining = 0.0
            h = remaining / (request.service_speedup * factor)
            if h < horizon:
                horizon = h
        self.engine.rearm(self._completion_handle, horizon)

    def _on_completion_event(self) -> None:
        """Complete every request that finished, in running order.

        A request counts as finished when its remaining work is gone or
        its time-to-finish drops below 1 ns (guards against the clock
        no longer resolving the step, which would re-arm forever).  The
        recorder and completion callbacks observe the running order.
        """
        self._advance()
        factor = self._factor
        finished = [
            r
            for r in self.running
            if r.remaining_work_ms <= _EPS
            or r.remaining_work_ms / (r.service_speedup * factor) <= 1e-6
        ]
        if not finished:
            # Rates changed between scheduling and firing; just re-arm.
            self._reschedule_completion()
            return
        for request in finished:
            self._complete(request)
        if self.waiting:
            self._dispatch()
        self._reschedule_completion()

    # ------------------------------------------------------------------
    # CPU-utilisation sampler.
    # ------------------------------------------------------------------

    def _start_sampler(self) -> None:
        """(Re)subscribe the CPU sampler on the first submit after idle.

        Paired with the idle shutdown in :meth:`_on_cpu_sample`, this
        keeps a drained server from burning sampler events forever: the
        sampler unsubscribes itself once the server is fully idle and
        is re-armed here by the next arrival.
        """
        self._cpu_window_start = self.engine.now
        self._cpu_busy_integral = 0.0
        self.engine.rearm(
            self._sampler_handle, self.config.cpu_sample_interval_ms
        )

    def _on_cpu_sample(self) -> None:
        self._advance()
        window = self.now - self._cpu_window_start
        if window > 0:
            sample = self._cpu_busy_integral / (
                window * self.config.capacity_core_equivalents
            )
            alpha = self.config.cpu_ema_alpha
            self._cpu_util_ema = (
                alpha * min(sample, 1.0) + (1 - alpha) * self._cpu_util_ema
            )
        self._cpu_busy_integral = 0.0
        self._cpu_window_start = self.now
        if self.running or self.waiting:
            self.engine.rearm(
                self._sampler_handle, self.config.cpu_sample_interval_ms
            )
        else:
            # Fully idle: stop sampling (no event churn in idle tails)
            # and decay the EMA to zero; submit() resubscribes.
            self._cpu_util_ema = 0.0

    # ------------------------------------------------------------------

    def run_to_completion(self, expected: int) -> None:
        """Drive the engine until ``expected`` requests have completed.

        Convenience for single-server experiments; cluster runs drive a
        shared engine externally.
        """
        engine_step = self.engine.step
        completed = self.recorder.responses_ms  # one entry per completion
        while len(completed) < expected:
            if not engine_step():
                raise SimulationError(
                    f"engine drained with {self.completed_count}/{expected} "
                    "requests complete"
                )

    def __repr__(self) -> str:
        return (
            f"Server(policy={self.policy.name}, queued={self.queue_length}, "
            f"running={self.running_count}, busy={self._busy_workers}/"
            f"{self.config.worker_threads})"
        )
