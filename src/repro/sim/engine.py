"""Event loop and simulation clock.

A minimal, fast discrete-event engine: callbacks are scheduled at
absolute simulated times (milliseconds), stored in a binary heap, and
executed in time order with FIFO tie-breaking.

The heap stores ``(time, seq, handle)`` tuples, so ordering is decided
by C-level tuple comparison instead of a Python ``__lt__`` call, and
every scheduling call takes the next ``seq``.  One liveness rule covers
every entry: an entry is live only while ``handle.seq == seq``.  Firing
and :meth:`EventHandle.cancel` retire the seq (``handle.seq = -1``);
:meth:`Engine.rearm` retires the handle's old entry and pushes the same
handle under the next seq.  Retired entries stay in the heap and are
skipped when popped, which keeps cancelling and re-arming O(log n) with
no removal cost.  The server re-arms its one completion handle on
almost every submit, check and completion, so a live-event counter
makes :attr:`Engine.pending` O(1) and drives automatic *compaction*:
when retired entries outnumber live ones the heap is rebuilt without
them, bounding both memory and the ``O(log n)`` push cost at
``O(log live)``.

Neither compaction nor re-arming changes observable behaviour: the pop
order of a heap is a pure function of the ``(time, seq)`` total order of
its live entries, which filtering and re-heapifying preserves, and a
re-arm pushes exactly the key a cancel plus a fresh ``schedule`` would
(DESIGN.md §10, "Completion re-arm in place").  Skipped entries are
never counted in :attr:`Engine.events_run`.

A run's arrivals enter through :meth:`Engine.schedule_series`, which
reserves one ``seq`` per arrival up front but keeps only the next
arrival in the heap, so the heap holds live events rather than the
whole trace (DESIGN.md §10, "Arrival series").
"""

from __future__ import annotations

import heapq
import math
from itertools import islice
from operator import le as _le
from typing import Any, Callable, Sequence

from ..errors import SimulationError

__all__ = ["Engine", "EventHandle"]

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = math.inf


class EventHandle:
    """A scheduled event that can be cancelled or re-armed.

    Attributes
    ----------
    time:
        Absolute simulated time (ms) the event fires (or last fired) at.
    seq:
        Sequence number of the handle's live heap entry, or -1 while it
        has none (fired, cancelled, or a persistent handle never armed).
    callback:
        What the event runs.  A one-shot handle (:meth:`Engine.schedule`)
        drops it when it fires or is cancelled, so a spent handle keeps
        no closure alive; a persistent handle (:meth:`Engine.handle`)
        keeps it and can be re-armed any number of times.
    """

    __slots__ = ("time", "seq", "callback", "persistent", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        engine: "Engine | None" = None,
        persistent: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback: Callable[[], None] | None = callback
        self.persistent = persistent
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        A no-op on a handle with no live entry (already fired or
        cancelled) — retiring it twice would double-decrement the
        engine's live-event counter.
        """
        if self.seq < 0:
            return
        self.seq = -1
        if not self.persistent:
            self.callback = None  # break reference cycles early
        engine = self._engine
        if engine is not None:
            engine._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "idle" if self.seq < 0 else "pending"
        return f"EventHandle(t={self.time:.3f}, seq={self.seq}, {state})"


class _Series:
    """The one heap entry of a :meth:`Engine.schedule_series` call.

    It sits in the heap like a one-shot handle that is never cancelled;
    each time it fires it re-enters the heap as the series' next entry
    (taking that entry's reserved seq) before running the caller's
    callback on the current item.
    """

    __slots__ = (
        "seq", "callback", "_engine", "_times", "_items", "_fn", "_base",
        "_next",
    )

    #: The engine drops the callback when an entry fires; :meth:`fire`
    #: sets it again while entries remain.
    persistent = False

    def __init__(
        self,
        engine: "Engine",
        times: list[float],
        callback: Callable[[Any], None],
        items: list,
        base: int,
    ) -> None:
        self.seq = base
        self.callback: Callable[[], None] | None = self.fire
        self._engine = engine
        self._times = times
        self._items = items
        self._fn = callback
        self._base = base
        self._next = 0

    def fire(self) -> None:
        """Queue the next entry, then run the callback on this one."""
        i = self._next
        n = i + 1
        if n < len(self._times):
            self._next = n
            self.callback = self.fire  # the engine cleared it
            seq = self._base + n
            self.seq = seq
            engine = self._engine
            _heappush(engine._heap, (self._times[n], seq, self))
            engine._live += 1
            engine._unqueued -= 1
        self._fn(self._items[i])


class Engine:
    """Discrete-event loop with a millisecond clock starting at 0.

    Parameters
    ----------
    compact_min_garbage:
        Minimum number of retired-but-unpopped entries before
        automatic compaction is considered.  Raise to effectively
        disable compaction (tests), lower to force it aggressively.
    compact_garbage_ratio:
        Compaction also requires ``garbage > ratio * live`` so rebuilds
        stay amortised O(1) per cancel or re-arm.
    """

    def __init__(
        self,
        compact_min_garbage: int = 64,
        compact_garbage_ratio: float = 1.0,
    ) -> None:
        if compact_min_garbage < 0:
            raise SimulationError("compact_min_garbage must be >= 0")
        if compact_garbage_ratio < 0:
            raise SimulationError("compact_garbage_ratio must be >= 0")
        self.now: float = 0.0
        self._heap: list[tuple[float, int, EventHandle | _Series]] = []
        self._seq = 0
        self._events_run = 0
        #: Live entries in the heap (``handle.seq == seq``).
        self._live = 0
        #: Series entries reserved but not yet pushed onto the heap.
        self._unqueued = 0
        self._compactions = 0
        self.compact_min_garbage = compact_min_garbage
        self.compact_garbage_ratio = compact_garbage_ratio

    @property
    def events_run(self) -> int:
        """Number of callbacks executed so far (retired entries excluded)."""
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of live events still scheduled.  O(1)."""
        return self._live + self._unqueued

    @property
    def garbage(self) -> int:
        """Retired entries still occupying heap slots."""
        return len(self._heap) - self._live

    @property
    def compactions(self) -> int:
        """Number of automatic/explicit heap compactions performed."""
        return self._compactions

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        now = self.now
        if not now - 1e-9 <= time < _INF:
            raise SimulationError(_bad_time(time, now))
        if time < now:
            time = now
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, self)
        _heappush(self._heap, (time, seq, handle))
        self._live += 1
        return handle

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` ms of simulated time."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        # Inlined schedule_at: now + delay can never round below now for
        # a non-negative delay, so the past-check and clamp are moot.
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, self)
        _heappush(self._heap, (time, seq, handle))
        self._live += 1
        return handle

    def handle(self, callback: Callable[[], None]) -> EventHandle:
        """A persistent handle for ``callback``, not yet scheduled.

        Arm it (and move it) with :meth:`rearm`.  Unlike a
        :meth:`schedule` handle it keeps its callback when it fires or
        is cancelled, so one handle serves a recurring event for life.
        """
        return EventHandle(_INF, -1, callback, self, persistent=True)

    def rearm(self, handle: EventHandle, delay: float) -> None:
        """Move ``handle`` to fire after ``delay`` ms of simulated time.

        Exactly a :meth:`EventHandle.cancel` followed by a fresh
        :meth:`schedule` of the same callback: a pending handle's old
        entry is retired (and may trigger compaction as a cancel does),
        and the handle is pushed with the next seq.  A fired or
        cancelled handle is simply armed again; a one-shot handle that
        already dropped its callback cannot be.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        if handle.callback is None:
            raise SimulationError("cannot re-arm a spent one-shot handle")
        if handle.seq >= 0:
            handle.seq = -1
            self._on_cancel()
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle.time = time
        handle.seq = seq
        _heappush(self._heap, (time, seq, handle))
        self._live += 1

    def schedule_series(
        self,
        times: Sequence[float],
        callback: Callable[[Any], None],
        items: Sequence[Any],
    ) -> None:
        """Schedule ``callback(items[i])`` at ``times[i]`` for every ``i``.

        Fires exactly as ``schedule_at(times[i], ...)`` called for each
        item in order would: the call reserves ``len(times)`` consecutive
        seqs, and each entry keeps its time (clamped to ``now`` within
        the same 1e-9 as :meth:`schedule_at`) and its seq.  Only the next
        entry is in the heap; firing entry ``i`` pushes entry ``i + 1``
        before it runs the callback.  Every key popped before entry ``i``
        fires is smaller than entry ``i``'s, so entry ``i + 1`` is always
        in the heap before a key larger than its own could pop.

        ``times`` must be finite, non-decreasing and not before ``now``.
        The entries count in :attr:`pending` until they fire and cannot
        be cancelled.
        """
        times = list(map(float, times))
        items = list(items)
        n = len(times)
        if n != len(items):
            raise SimulationError(
                f"schedule_series needs one time per item, got {n} times "
                f"for {len(items)} items"
            )
        if not n:
            return
        now = self.now
        if not now - 1e-9 <= times[0] < _INF:
            raise SimulationError(_bad_time(times[0], now))
        if not times[-1] < _INF:
            raise SimulationError(_bad_time(times[-1], now))
        if not all(map(_le, times, islice(times, 1, None))):
            i = next(
                i for i in range(n - 1) if not times[i] <= times[i + 1]
            )
            raise SimulationError(
                f"series times must be non-decreasing: times[{i}] = "
                f"{times[i]!r}, times[{i + 1}] = {times[i + 1]!r}"
            )
        for i in range(n):
            if times[i] >= now:
                break
            times[i] = now
        base = self._seq
        self._seq = base + n
        series = _Series(self, times, callback, items, base)
        _heappush(self._heap, (times[0], base, series))
        self._live += 1
        self._unqueued += n - 1

    def _on_cancel(self) -> None:
        """Bookkeeping once per retired pending entry (cancel or re-arm)."""
        live = self._live - 1
        self._live = live
        garbage = len(self._heap) - live
        if garbage >= self.compact_min_garbage and (
            garbage > self.compact_garbage_ratio * live
        ):
            self.compact()

    def compact(self) -> None:
        """Drop retired entries and rebuild the heap in place.

        Safe at any point: pop order depends only on the ``(time, seq)``
        total order, which any valid heap of the same entries yields.
        The list object stays the same, so a loop holding it stays valid.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2].seq == entry[1]]
        heapq.heapify(heap)
        self._compactions += 1

    def close(self) -> None:
        """Drop the retired entries a finished run leaves in the heap.

        Each holds a handle whose back-reference to this engine would
        keep both in a reference cycle until a full collection.  Only a
        run with nothing pending can be closed.
        """
        if self.pending:
            raise SimulationError(
                f"cannot close an engine with {self.pending} pending events"
            )
        self._heap.clear()

    def step(self) -> bool:
        """Run the next live event.  Returns False when the heap is empty."""
        heap = self._heap
        while heap:
            time, seq, handle = _heappop(heap)
            if handle.seq != seq:
                continue
            handle.seq = -1
            self._live -= 1
            self.now = time
            callback = handle.callback
            if not handle.persistent:
                handle.callback = None
            self._events_run += 1
            assert callback is not None
            callback()
            return True
        return False

    def run(self, max_events: int | None = None) -> int:
        """Run events until the heap drains (or ``max_events`` fire).

        Returns the number of events executed by this call.
        """
        executed = 0
        while max_events is None or executed < max_events:
            if not self.step():
                break
            executed += 1
        return executed


def _bad_time(time: float, now: float) -> str:
    """Why ``time`` cannot be scheduled at ``now`` (error message)."""
    if time < now:
        return f"cannot schedule event in the past: {time:.6f} < now={now:.6f}"
    return f"event time must be finite, got {time}"
