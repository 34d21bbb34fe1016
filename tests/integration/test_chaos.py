"""Chaos regression tests: the protocol behaviours the fault layer
exists to exercise.

* Crashing the current acker must trigger a re-election that keeps the
  session flowing (§3.5–§3.6: the acker moving — or dying — is not a
  congestion signal).
* Flapping the bottleneck must drain the ACK clock into the stall
  machinery, which restarts from ``W = T = 1`` (§3.2) rather than
  deadlocking.
* The combined scenario (ISSUE acceptance): acker crash + bottleneck
  flap under a strict invariant checker completes with zero violations.
"""

import pytest

from repro.pgm import create_session
from repro.simulator import LinkSpec, dumbbell
from repro.simulator.faults import ACKER, FaultPlan, NodeCrash, flap_link

pytestmark = pytest.mark.slow

BOTTLENECK = LinkSpec(rate_bps=500_000, delay=0.05, queue_slots=30)


def _last_data_time(trace) -> float:
    times = trace.times("data")
    return times[-1] if times else 0.0


class TestAckerCrash:
    def test_election_recovers_without_stalling_session(self):
        net = dumbbell(1, 3, BOTTLENECK, seed=11)
        plan = FaultPlan((NodeCrash(ACKER, at=8.0),))
        session = create_session(net, "h0", ["r0", "r1", "r2"], faults=plan)

        sent_at_crash = []
        net.sim.schedule_at(8.0, lambda: sent_at_crash.append(
            session.sender.odata_sent))
        net.run(until=30.0)

        crashed = session.fault_injector.actions("crash")
        assert len(crashed) == 1
        dead = crashed[0].target
        assert not net.nodes[dead].alive
        # a different receiver took over and data kept flowing
        assert session.sender.current_acker not in (None, dead)
        assert session.acker_switches >= 1
        assert session.sender.odata_sent > sent_at_crash[0]
        assert _last_data_time(session.trace) > 25.0
        # survivors keep receiving
        for rx in session.receivers:
            if rx.rx_id != dead:
                assert rx.odata_received > 0


class TestBottleneckFlap:
    def test_flap_restarts_from_w_equals_t_equals_one(self):
        net = dumbbell(1, 2, BOTTLENECK, seed=13)
        # long outages: each one starves the ACK clock into a stall
        plan = FaultPlan(flap_link("R0", "R1", first_at=8.0, down_for=3.0,
                                   up_for=5.0, cycles=2))
        session = create_session(net, "h0", ["r0", "r1"], faults=plan)
        ctl = session.sender.controller

        # snapshot (W, T) immediately after every restart
        restart_states = []
        original = ctl.backend.on_timeout

        def on_timeout(now):
            original(now)
            restart_states.append((ctl.backend.w, ctl.backend.tokens))

        ctl.backend.on_timeout = on_timeout
        net.run(until=40.0)

        assert ctl.stalls >= 1
        # §3.2: every stall restart begins again from W = T = 1
        assert restart_states
        assert all(state == (1.0, 1.0) for state in restart_states)
        # ... and the session came back instead of deadlocking:
        # data flows after the last flap ends (t = 19)
        assert _last_data_time(session.trace) > 35.0
        assert session.sender.odata_sent > 0
        for rx in session.receivers:
            assert rx.odata_received > 0


class TestAcceptanceScenario:
    def test_acker_crash_plus_flap_with_strict_invariants(self):
        """The ISSUE acceptance criterion: a session whose FaultPlan
        crashes the acker and flaps the bottleneck completes without
        stalling permanently and with zero invariant violations."""
        net = dumbbell(1, 3, BOTTLENECK, seed=17)
        plan = FaultPlan((NodeCrash(ACKER, at=6.0),)) + FaultPlan(
            flap_link("R0", "R1", first_at=12.0, down_for=2.0, up_for=4.0,
                      cycles=2)
        )
        session = create_session(
            net, "h0", ["r0", "r1", "r2"], faults=plan,
            check_invariants=True, strict_invariants=True,
        )
        net.run(until=40.0)
        session.invariants.verify_now()

        assert session.invariants.ok
        assert session.invariants.checks_run > 10
        assert len(session.fault_injector.actions("crash")) == 1
        assert session.acker_switches >= 1
        assert session.sender.controller.stalls >= 1
        assert _last_data_time(session.trace) > 35.0  # never wedged
