"""Probe behaviour: sim-clock sampling, determinism, stop semantics."""

import pytest

from repro.simulator.engine import Simulator
from repro.telemetry import MetricsRegistry, TimeSeriesProbe


class TestTimeSeriesProbe:
    def test_samples_at_fixed_sim_interval(self):
        sim = Simulator()
        reg = MetricsRegistry()
        probe = TimeSeriesProbe(sim, reg, interval=1.0)
        probe.sample("clock", lambda: sim.now)
        probe.start()
        sim.run(until=5.5)
        pts = reg.timeseries("clock").points
        assert [t for t, _ in pts] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert probe.samples_taken == 5

    def test_multiple_sources_share_one_timer(self):
        sim = Simulator()
        reg = MetricsRegistry()
        probe = TimeSeriesProbe(sim, reg, interval=0.5)
        probe.sample("a", lambda: 1.0).sample("b", lambda: 2.0)
        probe.start()
        sim.run(until=2.0)
        assert reg.timeseries("a").count == reg.timeseries("b").count == 4

    def test_sampling_deterministic_for_fixed_seed(self):
        """Two identical runs (fixed seeds everywhere) produce
        byte-identical series snapshots."""

        def run_once():
            import random

            rng = random.Random(7)
            sim = Simulator()
            reg = MetricsRegistry()
            state = {"v": 0.0}

            def jitter():
                state["v"] += rng.random()
                sim.schedule(0.3, jitter)

            sim.schedule(0.0, jitter)
            probe = TimeSeriesProbe(sim, reg, interval=0.25)
            probe.sample("v", lambda: state["v"])
            probe.start()
            sim.run(until=30.0)
            return reg.timeseries("v").snapshot()

        assert run_once() == run_once()

    def test_stop_cancels_timer_and_heap_drains(self):
        sim = Simulator()
        reg = MetricsRegistry()
        probe = TimeSeriesProbe(sim, reg, interval=1.0)
        probe.sample("x", lambda: 0.0)
        probe.start()
        sim.run(until=2.5)
        assert probe.running
        reg.close()  # the session-close path
        assert not probe.running
        sim.run()
        assert sim.pending() == 0

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesProbe(Simulator(), MetricsRegistry(), interval=0.0)

    def test_registers_itself_for_close(self):
        sim = Simulator()
        reg = MetricsRegistry()
        probe = TimeSeriesProbe(sim, reg, interval=1.0).start()
        reg.close()
        assert not probe.running
