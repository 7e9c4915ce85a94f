"""Tests for the discrete-event engine."""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append("b"))
        engine.schedule_at(1.0, lambda: fired.append("a"))
        engine.schedule_at(9.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_fifo(self):
        engine = Engine()
        fired = []
        for name in ("first", "second", "third"):
            engine.schedule_at(3.0, lambda n=name: fired.append(n))
        engine.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(7.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [7.5]
        assert engine.now == 7.5

    def test_schedule_relative_delay(self):
        engine = Engine()
        seen = []
        engine.schedule_at(2.0, lambda: engine.schedule(3.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5.0]

    def test_rejects_past_events(self):
        engine = Engine()
        engine.schedule_at(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times_and_delays(self, bad):
        engine = Engine()
        engine.schedule_at(3.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(bad, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(bad, lambda: None)
        assert engine.pending == 0
        assert engine.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.run() == 0

    def test_pending_excludes_cancelled(self):
        engine = Engine()
        h1 = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        h1.cancel()
        assert engine.pending == 1


class TestRunControl:
    def test_run_returns_event_count(self):
        engine = Engine()
        for t in range(5):
            engine.schedule_at(float(t), lambda: None)
        assert engine.run() == 5
        assert engine.events_run == 5

    def test_run_with_max_events_stops_early(self):
        engine = Engine()
        for t in range(5):
            engine.schedule_at(float(t), lambda: None)
        assert engine.run(max_events=2) == 2
        assert engine.pending == 3

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_run_until_executes_due_events_only(self):
        engine = Engine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(5.0, lambda: fired.append(5))
        engine.run_until(3.0)
        assert fired == [1]
        assert engine.now == 3.0
        engine.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_without_events(self):
        engine = Engine()
        engine.run_until(42.0)
        assert engine.now == 42.0


class TestHeapHygiene:
    """Live-event accounting and automatic heap compaction."""

    def test_pending_decrements_on_cancel(self):
        engine = Engine()
        handles = [engine.schedule_at(float(t), lambda: None) for t in range(10)]
        assert engine.pending == 10
        for h in handles[:4]:
            h.cancel()
        assert engine.pending == 6

    def test_double_cancel_counted_once(self):
        engine = Engine()
        h = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        h.cancel()
        h.cancel()
        h.cancel()
        assert engine.pending == 1

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        h = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        engine.step()
        h.cancel()  # already fired: must not corrupt the live count
        assert engine.pending == 1
        assert engine.run() == 1

    def test_garbage_tracks_cancelled_entries(self):
        engine = Engine()
        handles = [engine.schedule_at(float(t), lambda: None) for t in range(8)]
        assert engine.garbage == 0
        for h in handles[:3]:
            h.cancel()
        assert engine.garbage == 3
        engine.run()
        assert engine.garbage == 0

    def test_auto_compaction_triggers_and_shrinks_heap(self):
        engine = Engine(compact_min_garbage=4, compact_garbage_ratio=0.5)
        keep = [engine.schedule_at(100.0 + t, lambda: None) for t in range(4)]
        drop = [engine.schedule_at(50.0 + t, lambda: None) for t in range(8)]
        for h in drop:
            h.cancel()
        assert engine.compactions >= 1
        # Compaction purged the garbage present when it fired; only
        # cancellations after the last compaction can remain.
        assert engine.garbage < len(drop)
        assert engine.pending == len(keep)

    def test_compaction_disabled_by_high_threshold(self):
        engine = Engine(compact_min_garbage=10_000)
        for t in range(100):
            engine.schedule_at(float(t) + 1000.0, lambda: None).cancel()
        assert engine.compactions == 0
        assert engine.garbage == 100

    def test_explicit_compact_preserves_firing_order(self):
        engine = Engine(compact_min_garbage=10_000)
        fired = []
        for t in (5.0, 1.0, 9.0, 3.0, 7.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.schedule_at(4.0, lambda: None).cancel()
        engine.compact()
        assert engine.compactions == 1
        engine.run()
        assert fired == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_invalid_compaction_parameters_rejected(self):
        with pytest.raises(SimulationError):
            Engine(compact_min_garbage=-1)
        with pytest.raises(SimulationError):
            Engine(compact_garbage_ratio=-0.5)


class TestCompactionEquivalence:
    """Property: compaction never changes observable behaviour.

    Drives a randomised schedule/cancel workload through two engines —
    one compacting after every cancellation, one never compacting —
    and checks the event firing sequences are identical.
    """

    def _run_workload(self, engine, seed):
        import random

        rng = random.Random(seed)
        fired = []
        live = []

        def make_cb(tag):
            def cb():
                fired.append((round(engine.now, 6), tag))
                # Schedule a few follow-ups and cancel a random victim,
                # mirroring the server's cancel-and-rearm churn.
                for _ in range(rng.randrange(3)):
                    live.append(
                        engine.schedule(rng.uniform(0.1, 20.0), make_cb(len(fired)))
                    )
                if live and rng.random() < 0.6:
                    live.pop(rng.randrange(len(live))).cancel()

            return cb

        for i in range(40):
            live.append(engine.schedule_at(rng.uniform(0.0, 10.0), make_cb(-i)))
        engine.run(max_events=600)
        return fired, engine.events_run

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_always_vs_never_compacting_identical(self, seed):
        eager = Engine(compact_min_garbage=0, compact_garbage_ratio=0.0)
        lazy = Engine(compact_min_garbage=10**9)
        fired_eager, count_eager = self._run_workload(eager, seed)
        fired_lazy, count_lazy = self._run_workload(lazy, seed)
        assert fired_eager == fired_lazy
        assert count_eager == count_lazy
        assert eager.compactions > 0
        assert lazy.compactions == 0


class TestScheduleSeries:
    """A series fires exactly like eager ``schedule_at`` of its items."""

    def test_fires_items_in_order_with_one_heap_entry(self):
        engine = Engine()
        fired = []
        engine.schedule_series([1.0, 2.0, 2.0, 5.0], fired.append, "abcd")
        assert engine.pending == 4
        assert len(engine._heap) == 1
        assert engine.garbage == 0
        engine.run()
        assert fired == ["a", "b", "c", "d"]
        assert engine.events_run == 4
        assert engine.pending == 0

    def test_empty_series_is_a_no_op(self):
        engine = Engine()
        engine.schedule_series([], lambda item: None, [])
        assert engine.pending == 0
        assert not engine.step()

    def test_clamps_to_now_within_tolerance(self):
        engine = Engine()
        engine.schedule_at(4.0, lambda: None)
        engine.run()
        seen = []
        engine.schedule_series(
            [4.0 - 5e-10, 4.0, 6.0], lambda item: seen.append(engine.now), "xyz"
        )
        engine.run()
        assert seen == [4.0, 4.0, 6.0]

    @pytest.mark.parametrize(
        "times",
        [
            [1.0, 3.0, 2.0],
            [1.0, math.nan, 2.0],
            [math.nan],
            [1.0, math.nan],
            [1.0, 2.0, math.inf],
            [-math.inf, 1.0],
            [0.5, 1.0],
        ],
        ids=["unsorted", "nan-inside", "nan-alone", "nan-last", "inf", "-inf", "past"],
    )
    def test_rejects_bad_times(self, times):
        engine = Engine()
        engine.schedule_at(0.75, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_series(times, lambda item: None, list(range(len(times))))
        assert engine.pending == 0
        assert not engine.step()

    def test_rejects_length_mismatch(self):
        with pytest.raises(SimulationError):
            Engine().schedule_series([1.0, 2.0], lambda item: None, [0])

    def test_compaction_keeps_heap_list_identity(self):
        engine = Engine(compact_min_garbage=0, compact_garbage_ratio=0.0)
        heap = engine._heap
        engine.schedule_series([1.0, 2.0, 3.0], lambda item: None, "abc")
        engine.schedule_at(1.5, lambda: None).cancel()
        assert engine.compactions == 1
        assert engine._heap is heap
        assert engine.run() == 3

    def _run_workload(self, engine, seed, as_series):
        """Random schedule/cancel churn around series, or eager calls.

        Times are drawn from a coarse grid so series entries tie exactly
        with plain events, and follow-ups often use a zero delay.  Every
        random draw happens in callbacks or at set-up, so two engines
        that fire in the same order consume the same random stream.
        """
        rng = random.Random(seed)
        fired = []
        live = []

        def add_series(times, tag):
            items = [(tag, i) for i in range(len(times))]
            if as_series:
                engine.schedule_series(times, on_item, items)
            else:
                for at, item in zip(times, items):
                    engine.schedule_at(at, lambda item=item: on_item(item))

        def grid_times(start, count):
            return sorted(start + 0.5 * rng.randrange(12) for _ in range(count))

        def churn():
            for _ in range(rng.randrange(3)):
                delay = rng.choice([0.0, 0.0, 0.5, 1.0, rng.uniform(0.0, 3.0)])
                live.append(engine.schedule(delay, make_cb(len(fired))))
            if rng.random() < 0.3:
                live.append(
                    engine.schedule_at(
                        engine.now + 0.5 * rng.randrange(4), make_cb(-len(fired))
                    )
                )
            if live and rng.random() < 0.6:
                live.pop(rng.randrange(len(live))).cancel()

        def on_item(item):
            fired.append((engine.now, item, engine.pending, engine.events_run))
            churn()
            if item[1] == 3 and item[0] < 2:
                # A series scheduled mid-run, from inside another series.
                add_series(grid_times(engine.now, rng.randrange(1, 8)), item[0] + 1)

        def make_cb(tag):
            def cb():
                fired.append((engine.now, tag, engine.pending, engine.events_run))
                churn()

            return cb

        for i in range(10):
            live.append(engine.schedule_at(0.5 * rng.randrange(12), make_cb(-100 - i)))
        add_series(grid_times(0.0, 30), 0)
        for i in range(10):
            live.append(engine.schedule_at(0.5 * rng.randrange(12), make_cb(-200 - i)))
        engine.run(max_events=400)
        return fired, engine.events_run, engine.pending

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "compact", [None, (0, 0.0)], ids=["default-compaction", "compact-every-cancel"]
    )
    def test_series_matches_eager_schedule_at(self, seed, compact):
        series_engine = Engine() if compact is None else Engine(*compact)
        eager_engine = Engine(compact_min_garbage=10**9)
        series = self._run_workload(series_engine, seed, as_series=True)
        eager = self._run_workload(eager_engine, seed, as_series=False)
        assert series == eager
        assert len(series[0]) > 30
        if compact is not None:
            assert series_engine.compactions > 0


class TestRearm:
    """Re-arming one persistent handle in place."""

    def test_two_rearms_before_a_fire_fire_once_at_the_last_time(self):
        engine = Engine(compact_min_garbage=10**9)
        fired = []
        handle = engine.handle(lambda: fired.append(engine.now))
        engine.rearm(handle, 2.0)
        engine.rearm(handle, 5.0)
        assert engine.pending == 1
        assert engine.garbage == 1
        assert engine.run() == 1
        assert fired == [5.0]
        assert engine.pending == 0

    def test_rearm_earlier_than_the_pending_time(self):
        engine = Engine()
        fired = []
        handle = engine.handle(lambda: fired.append(engine.now))
        engine.rearm(handle, 5.0)
        engine.rearm(handle, 2.0)
        assert engine.run() == 1
        assert fired == [2.0]

    def test_rearm_a_fired_handle(self):
        engine = Engine()
        fired = []
        handle = engine.handle(lambda: fired.append(engine.now))
        engine.rearm(handle, 1.0)
        engine.run()
        engine.rearm(handle, 1.5)
        assert engine.pending == 1
        assert engine.run() == 1
        assert fired == [1.0, 2.5]

    def test_rearm_a_cancelled_handle(self):
        engine = Engine()
        fired = []
        handle = engine.handle(lambda: fired.append(engine.now))
        engine.rearm(handle, 1.0)
        handle.cancel()
        assert engine.pending == 0
        engine.rearm(handle, 3.0)
        assert engine.pending == 1
        assert engine.run() == 1
        assert fired == [3.0]

    def test_rearm_a_pending_one_shot_handle(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(4.0, lambda: fired.append(engine.now))
        engine.rearm(handle, 1.0)
        assert engine.run() == 1
        assert fired == [1.0]
        # Firing dropped the one-shot callback: it cannot be armed again.
        with pytest.raises(SimulationError):
            engine.rearm(handle, 1.0)

    def test_cancel_after_rearm(self):
        engine = Engine(compact_min_garbage=10**9)
        fired = []
        handle = engine.handle(lambda: fired.append(engine.now))
        engine.rearm(handle, 1.0)
        engine.rearm(handle, 2.0)
        handle.cancel()
        handle.cancel()
        assert engine.pending == 0
        assert engine.garbage == 2
        assert engine.run() == 0
        assert fired == []

    def test_compact_drops_stale_entries_of_a_rearmed_handle(self):
        engine = Engine(compact_min_garbage=10**9)
        fired = []
        handle = engine.handle(lambda: fired.append(engine.now))
        engine.schedule_at(3.0, lambda: fired.append("other"))
        for delay in (4.0, 1.0, 2.0):
            engine.rearm(handle, delay)
        assert len(engine._heap) == 4
        engine.compact()
        assert len(engine._heap) == 2
        assert engine.garbage == 0
        assert engine.run() == 2
        assert fired == [2.0, "other"]

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_bad_delays_and_keeps_the_pending_entry(self, bad):
        engine = Engine()
        fired = []
        handle = engine.handle(lambda: fired.append(engine.now))
        engine.rearm(handle, 2.0)
        with pytest.raises(SimulationError):
            engine.rearm(handle, bad)
        assert engine.pending == 1
        assert engine.run() == 1
        assert fired == [2.0]

    def _run_workload(self, engine, seed, rearm):
        """Random churn around one recurring event.

        With ``rearm`` the recurring event is one persistent handle moved
        by :meth:`Engine.rearm`; otherwise each move cancels the current
        handle and schedules a fresh one.  Times sit on a coarse grid and
        delays are often zero, so the recurring event ties exactly with
        other events.  Every random draw happens in a callback, so two
        engines that fire in the same order consume the same stream.
        """
        rng = random.Random(seed)
        fired = []
        live = []
        reference = []

        def record(tag):
            fired.append((engine.now, tag, engine.pending, engine.events_run))

        def on_recurring():
            record("recurring")
            churn()

        recurring = engine.handle(on_recurring)

        def move(delay):
            if rearm:
                engine.rearm(recurring, delay)
                return
            if reference:
                reference.pop().cancel()
            reference.append(engine.schedule(delay, on_recurring))

        def stop():
            if rearm:
                recurring.cancel()
            elif reference:
                reference.pop().cancel()

        def churn():
            for _ in range(rng.randrange(3)):
                delay = rng.choice([0.0, 0.0, 0.5, 1.0, rng.uniform(0.0, 3.0)])
                live.append(engine.schedule(delay, make_cb(len(fired))))
            draw = rng.random()
            if draw < 0.5:
                move(rng.choice([0.0, 0.0, 0.5, 0.5 * rng.randrange(6)]))
            elif draw < 0.6:
                stop()
            if live and rng.random() < 0.4:
                live.pop(rng.randrange(len(live))).cancel()

        def make_cb(tag):
            def cb():
                record(tag)
                churn()

            return cb

        for i in range(20):
            live.append(engine.schedule_at(0.5 * rng.randrange(12), make_cb(-1 - i)))
        move(1.0)
        engine.run(max_events=500)
        return fired, engine.events_run, engine.pending

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "compact", [None, (0, 0.0)], ids=["default-compaction", "compact-every-cancel"]
    )
    def test_rearm_matches_cancel_and_fresh_schedule(self, seed, compact):
        rearm_engine = Engine() if compact is None else Engine(*compact)
        fresh_engine = Engine(compact_min_garbage=10**9)
        rearmed = self._run_workload(rearm_engine, seed, rearm=True)
        fresh = self._run_workload(fresh_engine, seed, rearm=False)
        assert rearmed == fresh
        assert sum(1 for entry in rearmed[0] if entry[1] == "recurring") > 5
        if compact is not None:
            assert rearm_engine.compactions > 0


class TestHandleCallbacks:
    def test_spent_one_shot_handles_drop_their_callback(self):
        engine = Engine()
        fired = engine.schedule(1.0, lambda: None)
        cancelled = engine.schedule(2.0, lambda: None)
        cancelled.cancel()
        engine.run()
        assert fired.callback is None
        assert cancelled.callback is None

    def test_persistent_handle_keeps_its_callback(self):
        engine = Engine()
        callback = lambda: None  # noqa: E731
        handle = engine.handle(callback)
        engine.rearm(handle, 1.0)
        engine.run()
        assert handle.callback is callback
        engine.rearm(handle, 1.0)
        handle.cancel()
        assert handle.callback is callback
