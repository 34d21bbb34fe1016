"""Unit tests for the discrete-event engine."""

import pytest

from repro.simulator.engine import (
    Simulator,
    Timer,
    cancel_event,
    describe_event,
)


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_ties_break_by_insertion_order(self, sim):
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_in_past_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_before_now_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_from_callback(self, sim):
        times = []

        def chain():
            times.append(sim.now)
            if len(times) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert times == [1.0, 2.0, 3.0]

    def test_zero_delay_allowed(self, sim):
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: None))
        sim.run()
        assert sim.now == 1.0


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_then_resume(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        sim.run(until=20.0)
        assert fired == [1, 2]

    def test_max_events(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_events_processed_counter(self, sim):
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_pending_excludes_cancelled(self, sim):
        sim.schedule(1.0, lambda: None)
        ev = sim.schedule(2.0, lambda: None)
        sim.cancel(ev)
        assert sim.pending() == 1

    def test_run_from_callback_rejected(self, sim):
        # A nested loop could carry the clock past the outer ``until``.
        fired = []

        def inner():
            with pytest.raises(RuntimeError, match="not re-entrant"):
                sim.run(until=5.0)
            fired.append(sim.now)

        sim.schedule(1.0, inner)
        sim.schedule(2.0, fired.append, "t=2")
        sim.run(until=1.5)
        assert fired == [1.0]
        assert sim.now == 1.5
        sim.run(until=3.0)  # the guard resets: a later run() works
        assert fired == [1.0, "t=2"]
        assert sim.now == 3.0


class TestTimer:
    def test_fires_once(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]
        assert not timer.armed

    def test_restart_supersedes(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        timer.restart(5.0)
        sim.run()
        assert fired == [5.0]

    def test_cancel(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_double_start_raises(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        with pytest.raises(RuntimeError):
            timer.start(2.0)

    def test_expiry_property(self, sim):
        timer = Timer(sim, lambda: None)
        assert timer.expiry is None
        timer.start(3.0)
        assert timer.expiry == 3.0

    def test_rearm_from_callback(self, sim):
        fired = []
        timer = Timer(sim, lambda: None)

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.restart(1.0)

        timer._callback = tick
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestEventHandles:
    def test_cancel_event_function(self, sim):
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        cancel_event(ev)
        sim.run()
        assert fired == []

    def test_describe_live_event(self, sim):
        ev = sim.schedule(1.5, print, "hello")
        text = describe_event(ev)
        assert "1.5" in text and "print" in text and "hello" in text

    def test_describe_cancelled_event_drops_args(self, sim):
        ev = sim.schedule(1.0, print, "secret-arg")
        sim.cancel(ev)
        text = describe_event(ev)
        assert "secret-arg" not in text
        assert "cancelled" in text


class TestNotANumber:
    """``delay < 0`` is False for NaN: a NaN time has to be refused in
    its own right, or it sits at the top of the heap and halts the run
    (``heap[0][0] <= until`` is False too)."""

    def test_schedule_rejects_nan(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_at_rejects_nan(self, sim):
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_post_at_rejects_nan(self, sim):
        sim.post_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.post_at(float("nan"), lambda: None)

    def test_a_refused_nan_leaves_the_run_intact(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), fired.append, "nan")
        sim.run(until=10.0)
        assert fired == [1] and sim.pending() == 0


def _entries(sim):
    return len(sim._heap)


class TestPosts:
    """``post_at``: back-to-back posts for one future instant share one
    heap entry, and every member is still its own event."""

    def test_back_to_back_posts_share_one_entry(self, sim):
        order = []
        for tag in range(4):
            sim.post_at(1.0, order.append, tag)
        assert _entries(sim) == 1 and sim.pending() == 4
        sim.run()
        assert order == [0, 1, 2, 3]
        assert sim.events_processed == 4 and sim.now == 1.0

    def test_a_schedule_in_between_starts_a_new_entry(self, sim):
        order = []
        sim.post_at(1.0, order.append, "a")
        sim.schedule_at(1.0, order.append, "timer")
        sim.post_at(1.0, order.append, "b")
        sim.post_at(2.0, order.append, "c")
        sim.post_at(1.0, order.append, "d")
        assert _entries(sim) == 5
        sim.run()
        assert order == ["a", "timer", "b", "d", "c"]

    def test_no_post_joins_an_entry_due_now(self, sim):
        order = []

        def post_twice():
            sim.post_at(sim.now, order.append, "x")
            sim.post_at(sim.now, order.append, "y")

        sim.post_at(1.0, post_twice)
        sim.run(max_events=1)
        assert _entries(sim) == 2
        sim.run()
        assert order == ["x", "y"]

    def test_a_post_after_a_drained_run_starts_a_new_entry(self, sim):
        # the cancelled entry was popped and discarded without moving
        # the clock: a post for its instant must not join it
        handle = sim.post_at(5.0, print, "gone")
        sim.cancel(handle)
        sim.run()
        assert sim.now == 0.0
        fired = []
        sim.post_at(5.0, fired.append, "kept")
        sim.run()
        assert fired == ["kept"]

    def test_detaching_one_member(self, sim):
        order = []
        handles = [sim.post_at(1.0, order.append, tag) for tag in range(3)]
        sim.cancel(handles[1])
        assert sim.pending() == 2
        sim.run()
        assert order == [0, 2]

    def test_the_first_posts_handle_names_its_member(self, sim):
        first = sim.post_at(1.0, print, "first")
        second = sim.post_at(1.0, print, "second")
        assert "first" in describe_event(first)
        assert "second" in describe_event(second)
        cancel_event(first)
        assert "cancelled" in describe_event(first)
        assert "second" in describe_event(second)
        assert sim.pending() == 1

    def test_max_events_stops_inside_an_entry_and_resumes_there(self, sim):
        order = []
        for tag in range(5):
            sim.post_at(1.0, order.append, tag)
        sim.schedule_at(1.0, order.append, "after")
        sim.run(max_events=2)
        assert order == [0, 1] and sim.pending() == 4
        sim.run(max_events=2)
        assert order == [0, 1, 2, 3]
        sim.run()
        assert order == [0, 1, 2, 3, 4, "after"]
        assert sim.events_processed == 6

    def test_a_raising_member_leaves_the_rest_queued(self, sim):
        """As separate events would: the raiser is consumed, uncounted,
        and the members behind it run on the next ``run()``."""
        order = []

        def boom():
            raise RuntimeError("boom")

        sim.post_at(1.0, order.append, "a")
        sim.post_at(1.0, boom)
        sim.post_at(1.0, order.append, "c")
        sim.schedule_at(1.0, order.append, "timer")
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert order == ["a"]
        assert sim.events_processed == 1 and sim.pending() == 2
        sim.run()
        assert order == ["a", "c", "timer"]
        assert sim.events_processed == 3
