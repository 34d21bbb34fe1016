"""Tests for the §3.8/§5 protocol extensions: adaptive ssthresh,
history recovery and NAK-storm pacing."""

import pytest

from repro.core.sender_cc import CcConfig
from repro.core.window import WindowController
from repro.pgm import add_receiver, create_session
from repro.simulator import NON_LOSSY, dumbbell


class TestAdaptiveSsthresh:
    def test_starts_effectively_unlimited(self):
        ctl = WindowController(adaptive_ssthresh=True)
        assert ctl.ssthresh > 1000

    def test_loss_sets_half_window(self):
        ctl = WindowController(adaptive_ssthresh=True)
        ctl.w = 40.0
        ctl.on_congestion(1, 100, 40, 0.0)
        assert ctl.ssthresh == pytest.approx(20.0)

    def test_survives_restart(self):
        """§3.4: TCP's adaptive threshold persists across stalls."""
        ctl = WindowController(adaptive_ssthresh=True)
        ctl.w = 40.0
        ctl.on_congestion(1, 100, 40, 0.0)
        ctl.on_timeout(0.0)
        assert ctl.ssthresh == pytest.approx(20.0)
        assert ctl.w == 1.0

    def test_fixed_mode_unchanged(self):
        ctl = WindowController(ssthresh=6)
        ctl.w = 40.0
        ctl.on_congestion(1, 100, 40, 0.0)
        assert ctl.ssthresh == 6

    def test_exponential_reopening_after_restart(self):
        ctl = WindowController(adaptive_ssthresh=True)
        ctl.w = 32.0
        ctl.on_congestion(1, 100, 32, 0.0)  # ssthresh 16
        ctl.on_timeout(0.0)
        for _ in range(15):
            ctl.on_ack(0.0)
        assert ctl.w == pytest.approx(16.0)
        ctl.on_ack(0.0)
        assert ctl.w == pytest.approx(16.0 + 1 / 16.0)

    def test_session_runs_with_adaptive_ssthresh(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=31)
        session = create_session(
            net, "h0", ["r0"], cc=CcConfig(adaptive_ssthresh=True)
        )
        net.run(until=20.0)
        assert session.throughput_bps(5, 20) > 300_000


class TestHistoryRecovery:
    def make_session(self, recover, seed=33):
        net = dumbbell(1, 2, NON_LOSSY, seed=seed)
        session = create_session(net, "h0", ["r0"])
        add_receiver(net, session, "r1", at=10.0, recover_history=recover)
        return net, session

    def test_late_joiner_recovers_history(self):
        net, session = self.make_session(recover=True)
        net.run(until=60.0)
        late = session.receiver("r1")
        # recovered repairs well before its join point
        assert late.rdata_received > 50
        assert late._next_deliver > 0 or late.delivered >= 0
        assert late.naks_sent > 10

    def test_default_joiner_requests_nothing(self):
        net, session = self.make_session(recover=False)
        net.run(until=60.0)
        late = session.receiver("r1")
        assert late.rdata_received < 10

    def test_history_limit_caps_request(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=34)
        session = create_session(net, "h0", ["r0"])

        def join():
            from repro.pgm.receiver import PgmReceiver

            session.members.append("r1")
            net.set_group(session.group, "h0", session.members)
            rx = PgmReceiver(
                net.host("r1"), session.group, session.tsi, "h0",
                recover_history=True, history_limit=20,
            )
            session.receivers.append(rx)

        net.sim.schedule_at(20.0, join)
        net.run(until=25.0)
        late = session.receivers[-1]
        assert len(late._nak_states) <= 20


class TestNakStormPacing:
    @staticmethod
    def storm(**rx_kwargs):
        """A joiner at t=15 s NAKs 400 packets of history.  Returns its
        NAK times and the engine events processed in 15-25 s."""
        net = dumbbell(1, 2, NON_LOSSY, seed=35)
        session = create_session(net, "h0", ["r0"])
        nak_times = []

        def join():
            from repro.pgm.receiver import PgmReceiver

            session.members.append("r1")
            net.set_group(session.group, "h0", session.members)
            rx = PgmReceiver(
                net.host("r1"), session.group, session.tsi, "h0",
                recover_history=True, history_limit=400, **rx_kwargs,
            )
            original = rx._send_nak

            def tap(seq, fake=False):
                nak_times.append(net.sim.now)
                original(seq, fake)

            rx._send_nak = tap
            session.receivers.append(rx)

        net.sim.schedule_at(15.0, join)
        net.run(until=15.0)
        before = net.sim.events_processed
        net.run(until=25.0)
        return nak_times, net.sim.events_processed - before

    def test_paced_naks_are_spaced(self):
        """A joiner requesting lots of history must not burst NAKs."""
        nak_times, _ = self.storm(storm_threshold=16, storm_spacing=0.05)
        assert len(nak_times) > 20
        # during the storm, consecutive NAKs respect the spacing floor
        storm = [t for t in nak_times if t < 17.0]
        gaps = [b - a for a, b in zip(storm, storm[1:])]
        assert gaps and min(gaps) >= 0.04

    def test_a_storm_costs_one_wakeup_per_nak(self):
        """One pacer serves the waiting gaps: a per-gap re-arm woke
        every waiting gap after each NAK (67.9k events for these 200
        NAKs)."""
        nak_times, events = self.storm(storm_threshold=16, storm_spacing=0.05)
        assert len(nak_times) == 200
        assert min(b - a for a, b in zip(nak_times, nak_times[1:])) >= 0.05
        assert events < 10_000

    def test_unpaced_joiner_bursts(self):
        # pacing effectively off
        nak_times, _ = self.storm(storm_threshold=10_000)
        storm = [t for t in nak_times if t < 15.2]
        # without pacing the whole backlog is NAKed within the backoff window
        assert len(storm) > 100
