"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "mid")
        sim.run()
        assert fired == ["early", "mid", "late"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        fired = []
        for k in range(10):
            sim.schedule(2.0, fired.append, k)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]
        assert sim.now == 7.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=100.0)
        fired = []
        sim.schedule_at(150.0, fired.append, "x")
        sim.run()
        assert sim.now == 150.0 and fired == ["x"]

    def test_scheduling_in_past_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_time_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_zero_delay_event_fires_at_now(self):
        sim = Simulator(start_time=4.0)
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [4.0]

    def test_callback_args_passed_through(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "two")
        sim.run()
        assert got == [(1, "two")]


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        ev.cancel()
        sim.run()
        assert fired == ["b"]

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run()
        assert sim.events_processed == 0

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(5.0, fired.append, "should-not-fire")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.peek() == 2.0


class TestRunControl:
    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0  # clock advanced to the horizon

    def test_run_until_resumes(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_event_at_until_boundary_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        sim.run(max_events=50)
        assert sim.events_processed == 50

    def test_step_returns_false_on_empty_heap(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_scheduled_during_callbacks_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, fired.append, "child"))
        sim.run()
        assert fired == ["child"] and sim.now == 2.0

    def test_not_reentrant(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.run())
        with pytest.raises(SimulationError):
            sim.run()


class TestIncrementalStepping:
    """The run_until / peek API the online broker drives."""

    def test_run_until_executes_strictly_earlier_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(9.0, fired.append, "c")
        executed = sim.run_until(5.0)
        assert executed == 2
        assert fired == ["a", "b"]
        assert sim.now == 5.0
        assert sim.peek() == 9.0

    def test_arrival_exactly_at_next_event_time_leaves_it_pending(self):
        """Exclusive boundary: an event AT the arrival instant stays queued.

        This is the tie-break that makes broker replay trace-identical to
        the offline runner — a batch arrival coinciding with a probe tick
        or capacity epoch must be handled before the internal event fires.
        """
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        executed = sim.run_until(5.0)
        assert executed == 0
        assert fired == []
        assert sim.now == 5.0
        assert sim.peek() == 5.0  # still pending
        sim.run()
        assert fired == ["edge"]

    def test_inclusive_boundary_fires_same_time_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        executed = sim.run_until(5.0, inclusive=True)
        assert executed == 1
        assert fired == ["edge"]

    def test_empty_queue_advances_clock(self):
        sim = Simulator(start_time=2.0)
        executed = sim.run_until(8.0)
        assert executed == 0
        assert sim.now == 8.0

    def test_run_until_now_is_a_noop(self):
        sim = Simulator(start_time=3.0)
        sim.schedule(0.0, lambda: None)
        assert sim.run_until(3.0) == 0
        assert sim.now == 3.0

    def test_run_until_backwards_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_run_until_nan_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run_until(float("nan"))

    def test_run_until_not_reentrant(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.run_until(9.0))
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_events_spawned_inside_window_still_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, fired.append, "child"))
        sim.run_until(3.0)
        assert fired == ["child"]
        assert sim.now == 3.0

    def test_interleaves_with_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(6.0, fired.append, "b")
        sim.run_until(4.0)
        fired.append("arrival@4")
        sim.run()
        assert fired == ["a", "arrival@4", "b"]


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_execution_order_is_sorted_stable(self, delays):
        """Events always run in (time, insertion) order for any delay set."""
        sim = Simulator()
        fired = []
        for idx, d in enumerate(delays):
            sim.schedule(d, fired.append, (d, idx))
        sim.run()
        assert fired == sorted(fired)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_cancelled_subset_never_fires(self, delays, data):
        sim = Simulator()
        fired = []
        events = [sim.schedule(d, fired.append, i) for i, d in enumerate(delays)]
        to_cancel = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(delays) - 1))
        )
        for i in to_cancel:
            events[i].cancel()
        sim.run()
        assert set(fired) == set(range(len(delays))) - to_cancel


class TestEdgeCases:
    """Corner behaviours the invariant checker and broker lean on."""

    def test_cancel_after_event_already_ran_is_harmless(self):
        """Lazy cancellation of an event the heap already popped.

        ``cancel()`` is only a flag; flipping it on a handle whose
        callback already executed must neither raise nor disturb later
        events (the fluid-flow link cancels completion events it may
        have just consumed during a capacity rebuild).
        """
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, fired.append, "first")
        sim.schedule(2.0, fired.append, "second")
        assert sim.step()  # pops and runs `first`
        first.cancel()  # stale handle: event is gone from the heap
        assert not first.active
        sim.run()
        assert fired == ["first", "second"]
        assert sim.events_processed == 2

    def test_cancel_from_within_own_callback(self):
        """An event cancelling *itself* mid-execution is a no-op too."""
        sim = Simulator()
        holder = {}
        holder["ev"] = sim.schedule(1.0, lambda: holder["ev"].cancel())
        sim.run()
        assert sim.events_processed == 1

    def test_same_instant_fifo_across_mixed_scheduling(self):
        """FIFO tie-break holds for events reaching one instant two ways:
        scheduled directly and scheduled *from a callback* at now."""
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "a")

        def spawn_at_now():
            fired.append("b")
            sim.schedule(0.0, fired.append, "d")  # same instant, higher seq

        sim.schedule(5.0, spawn_at_now)
        sim.schedule(5.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c", "d"]

    def test_run_until_boundary_is_exclusive(self):
        """An event at exactly ``run_until``'s target stays pending."""
        sim = Simulator()
        fired = []
        sim.schedule_at(10.0, fired.append, "edge")
        executed = sim.run_until(10.0)
        assert executed == 0
        assert fired == []
        assert sim.now == 10.0
        # The pending event still fires on the next advance, at its time.
        sim.run_until(10.0, inclusive=True)
        assert fired == ["edge"]
        assert sim.now == 10.0

    def test_scheduling_exactly_at_now_after_boundary_advance(self):
        """After the clock lands exactly on t, scheduling at t is legal
        (not "in the past") and runs after the earlier same-time event."""
        sim = Simulator()
        fired = []
        sim.schedule_at(10.0, fired.append, "pre")
        sim.run_until(10.0)
        sim.schedule_at(10.0, fired.append, "post")
        sim.run()
        assert fired == ["pre", "post"]


class TestHeapCompaction:
    """Mass lazy cancellation must shrink the heap without reordering."""

    def test_mass_cancellation_compacts_heap(self):
        sim = Simulator()
        fired: list = []
        dead = [
            sim.schedule_at(1000.0 + 0.001 * i, fired.append, "dead")
            for i in range(3000)
        ]
        for ev in dead:
            ev.cancel()
        # Pushing live events past the census interval triggers a rebuild
        # (3000 dead + ~1100 live crosses the 4096-push census with the
        # cancelled fraction above the rebuild threshold).
        for i in range(1200):
            sim.schedule_at(10.0 + i, fired.append, i)
        assert sim.compactions >= 1
        assert sim.pending == 1200  # every dead entry swept
        sim.run()
        assert fired == list(range(1200))

    def test_compaction_preserves_fifo_tie_break(self):
        sim = Simulator()
        fired: list = []
        dead = [sim.schedule_at(500.0, fired.append, "dead") for _ in range(3000)]
        for ev in dead:
            ev.cancel()
        # Many same-time live events scheduled across the census boundary:
        # the rebuild must keep their seq (FIFO) order.
        for i in range(1500):
            sim.schedule_at(100.0, fired.append, i)
        assert sim.compactions >= 1
        for i in range(1500, 2600):
            sim.schedule_at(100.0, fired.append, i)
        sim.run()
        assert fired == list(range(2600))

    def test_compaction_during_run_keeps_draining_new_events(self):
        """Regression: compaction mid-run must not strand the event loop.

        The loop holds a local alias to the heap list; a rebuild that
        rebinds the attribute instead of mutating in place would leave the
        loop popping a stale list while new events land in the fresh one.
        """
        sim = Simulator()
        far: list = []
        count = {"n": 0}

        def noop() -> None:
            pass

        def tick() -> None:
            count["n"] += 1
            for ev in far:
                if ev.active:
                    ev.cancel()
            far.clear()
            for k in range(8):
                far.append(sim.schedule_at(sim.now + 1000.0 + k, noop))
            if count["n"] < 2000:
                sim.schedule_at(sim.now + 1.0, tick)

        sim.schedule_at(0.0, tick)
        sim.run(until=5000.0)
        assert count["n"] == 2000
        assert sim.compactions >= 1

    def test_small_heaps_are_never_compacted(self):
        sim = Simulator()
        for i in range(200):
            sim.schedule_at(10.0 + i, lambda: None).cancel()
        for i in range(5000):
            ev = sim.schedule_at(10.0, lambda: None)
            ev.cancel()
            sim.step()
        assert sim.compactions == 0
