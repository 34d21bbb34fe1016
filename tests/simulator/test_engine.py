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
