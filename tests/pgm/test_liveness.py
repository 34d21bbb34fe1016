"""Liveness watchdog: state machine, timers, degraded mode and its
interaction with the generic stall machinery."""

from repro.core.sender_cc import CcConfig
from repro.pgm import create_session, liveness
from repro.pgm.liveness import DEGRADED, NORMAL, SUSPECT, LivenessWatchdog
from repro.pgm.session import SessionConfig
from repro.pgm.telemetry import read_log
from repro.simulator import NON_LOSSY, dumbbell
from repro.simulator.faults import (
    ACKER,
    ControlBlackhole,
    FaultPlan,
    NodeCrash,
    Partition,
)


def _log(session):
    """What the sender's log says about the watchdog so far."""
    return read_log(session.trace, session.network.sim.now)


def _session(net, liveness=True, faults=None):
    return create_session(
        net, "h0", [f"r{i}" for i in range(2)],
        config=SessionConfig(
            cc=CcConfig(liveness=liveness),
            faults=faults,
        ),
    )


class TestConfig:
    def test_no_watchdog_without_opt_in(self):
        net = dumbbell(1, 2, NON_LOSSY)
        session = create_session(net, "h0", ["r0"])
        assert session.sender.watchdog is None


class TestHealthySession:
    def test_stays_normal_with_live_acker(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=11)
        session = _session(net)
        net.run(until=15.0)
        watchdog = session.sender.watchdog
        assert watchdog.state == NORMAL
        assert watchdog.demotions == 0
        assert watchdog.degraded_entries == 0
        assert _log(session).transitions == []

    def test_idle_sender_stands_down(self):
        # A finished transmission must not look like a dead acker.
        net = dumbbell(1, 2, NON_LOSSY, seed=11)
        session = create_session(
            net, "h0", ["r0", "r1"],
            config=SessionConfig(cc=CcConfig(liveness=True), stop_at=3.0))
        net.run(until=20.0)
        assert session.sender.watchdog.demotions == 0


class TestAckerCrash:
    def test_watchdog_demotes_and_reelects(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=11)
        faults = FaultPlan((NodeCrash(ACKER, at=5.0),))
        session = _session(net, faults=faults)
        net.run(until=20.0)
        watchdog = session.sender.watchdog
        assert watchdog.demotions >= 1
        assert watchdog.state == NORMAL  # recovered
        assert _log(session).ttr_samples  # the episode was measured
        # the election moved off the dead receiver
        assert session.sender.controller.current_acker is not None

    def test_watchdog_beats_generic_stall_path(self):
        """The headline claim: with the watchdog, the session is back
        to a live acker strictly sooner than stall-machinery-only."""

        def first_ack_after_crash(liveness):
            net = dumbbell(1, 2, NON_LOSSY, seed=11)
            faults = FaultPlan((NodeCrash(ACKER, at=5.0),))
            session = create_session(
                net, "h0", ["r0", "r1"],
                config=SessionConfig(cc=CcConfig(liveness=liveness),
                                     faults=faults))
            controller = session.sender.controller
            acks = []
            original = controller.on_ack

            def spy(ack_seq, bitmap, report):
                acks.append((net.sim.now, report.rx_id))
                return original(ack_seq, bitmap, report)

            controller.on_ack = spy
            crashed = []
            net.sim.schedule_at(5.0, lambda: crashed.append(
                controller.current_acker))
            net.run(until=30.0)
            # In-flight ACKs from the dead acker still land just after
            # the crash; recovery means hearing from a *different*
            # receiver (the successor the election produced).
            recovery = [t for t, rx in acks if t > 5.0 and rx != crashed[0]]
            assert recovery, "session never recovered after the crash"
            return recovery[0]

        with_watchdog = first_ack_after_crash(True)
        stall_only = first_ack_after_crash(False)
        assert with_watchdog < stall_only

    def test_demotion_is_not_an_eviction(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=11)
        faults = FaultPlan((NodeCrash(ACKER, at=5.0),))
        session = _session(net, faults=faults)
        net.run(until=20.0)
        controller = session.sender.controller
        assert session.sender.watchdog.demotions >= 1
        assert controller.acker_evictions == 0


class TestDegradedMode:
    def _blackout(self, duration=6.0):
        """Total feedback loss: ACK+NAK blackhole on the reverse
        bottleneck from t=3."""
        net = dumbbell(1, 2, NON_LOSSY, seed=13)
        faults = FaultPlan((
            ControlBlackhole("R1", "R0", at=3.0, duration=duration,
                             kinds=("Ack", "Nak")),
        ))
        return net, _session(net, faults=faults)

    def test_enters_degraded_and_recovers_on_heal(self):
        net, session = self._blackout()
        net.run(until=25.0)
        watchdog = session.sender.watchdog
        assert watchdog.degraded_entries >= 1
        assert watchdog.probes_sent >= 1
        assert watchdog.state == NORMAL
        log = _log(session)
        assert log.degraded_time_s > 0
        reasons = [r for _, _, _, r in log.transitions]
        assert "demotions-exhausted" in reasons

    def test_stall_counter_frozen_while_degraded(self):
        # Degraded mode owns recovery: the generic stall timer restarts
        # quietly instead of stacking exponential stall episodes.
        net, session = self._blackout()
        net.run(until=25.0)
        controller = session.sender.controller
        assert controller.restarts >= controller.stalls
        assert controller.stalls <= 3

    def test_nak_exits_degraded_to_suspect(self):
        net, session = self._blackout()
        net.run(until=25.0)
        trans = [(old, new, r) for _, old, new, r in _log(session).transitions]
        assert (DEGRADED, SUSPECT, "nak") in trans or \
               (DEGRADED, NORMAL, "ack") in [(o, n, r) for o, n, r in trans]

    def test_repair_budget_gates_rdata(self, monkeypatch):
        monkeypatch.setattr(liveness, "DEGRADED_REPAIR_BUDGET", 2)

        class _Sim:
            now = 0.0

            def schedule(self, delay, fn, *args):  # pragma: no cover
                return object()

            def cancel(self, ev):  # pragma: no cover
                pass

        class _Ctl:
            closed = False
            rto = None

        watchdog = LivenessWatchdog(_Sim(), _Ctl())
        watchdog.state = DEGRADED
        assert watchdog.repair_budget_left == 2
        assert watchdog.allow_repair()
        assert watchdog.allow_repair()
        assert not watchdog.allow_repair()
        assert watchdog.repairs_blocked == 1
        # outside degraded mode the budget does not apply
        watchdog.state = NORMAL
        assert watchdog.allow_repair()

    def test_summary_has_fixed_keys(self):
        net, session = self._blackout()
        net.run(until=10.0)
        # the watchdog's own state and probe counters ...
        assert set(session.sender.watchdog.summary()) == {
            "state", "probes_sent", "repairs_blocked",
        }
        # ... and what the recovery block reads off the log beside them
        recovery = session.summary()["recovery"]
        log = _log(session)
        assert recovery["degraded_time_s"] == log.degraded_time_s > 0
        assert recovery["ttr_samples"] == log.ttr_samples


class TestPartitionRecovery:
    def test_recovers_after_partition_heals(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=17)
        faults = FaultPlan((
            Partition(("h0", "R0"), ("R1", "r0", "r1"), at=4.0, duration=4.0),
        ))
        session = _session(net, faults=faults)
        net.run(until=30.0)
        watchdog = session.sender.watchdog
        assert watchdog.state == NORMAL
        assert _log(session).ttr_samples
        # deliveries resumed after the heal
        assert all(rx.delivered > 0 for rx in session.receivers)

    def test_close_is_idempotent_and_cancels_timers(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=17)
        session = _session(net)
        net.run(until=2.0)
        session.close()
        watchdog = session.sender.watchdog
        assert watchdog.closed
        session.close()  # second close must not raise
        net.run(until=4.0)  # no stray timer fires after close
