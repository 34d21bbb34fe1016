"""Tests for the sender-side pgmcc engine (§3.4–§3.6)."""

import pytest

from repro.core.acktrack import build_bitmap
from repro.core.reports import ReceiverReport
from repro.core.sender_cc import ELICIT_AFTER_STALLS, CcConfig, SenderController
from repro.simulator.engine import Simulator


def make(sim=None, **cfg):
    sim = sim or Simulator()
    return sim, SenderController(sim, CcConfig(**cfg))


def ack_for(ctl, seq, received, rx="r1", loss=0):
    """Build the (ack_seq, bitmap, report) triple the acker would send."""
    return seq, build_bitmap(seq, received), ReceiverReport(rx, max(received), loss)


class TestTransmitAccounting:
    def test_first_packet_carries_elicit_mark(self):
        _, ctl = make()
        assert ctl.register_data(0) is True
        ctl.backend.tokens = 1.0
        assert ctl.register_data(1) is False

    def test_non_monotonic_sequence_rejected(self):
        _, ctl = make()
        ctl.register_data(0)
        with pytest.raises(ValueError):
            ctl.register_data(0)

    def test_token_consumed(self):
        _, ctl = make()
        ctl.register_data(0)
        assert not ctl.can_send

    def test_disabled_cc_always_sendable(self):
        """§3.1: congestion control can be dynamically disabled."""
        _, ctl = make(enabled=False)
        for s in range(50):
            assert ctl.can_send
            ctl.register_data(s)


class TestAckProcessing:
    def test_ack_regenerates_tokens(self):
        _, ctl = make()
        ctl.register_data(0)
        digest = ctl.on_ack(*ack_for(ctl, 0, {0}))
        assert digest.newly_acked == [0]
        assert ctl.can_send

    def test_each_newly_acked_is_one_window_event(self):
        sim, ctl = make()
        ctl.register_data(0)
        ctl.backend.tokens = 2.0
        ctl.register_data(1)
        ctl.register_data(2)
        # single ACK covering all three
        digest = ctl.on_ack(*ack_for(ctl, 2, {0, 1, 2}))
        assert digest.newly_acked == [0, 1, 2]
        assert ctl.backend.acks_processed == 3

    def test_loss_detection_halves_window(self):
        sim, ctl = make()
        received = set()
        ctl.backend.tokens = 10.0
        for s in range(8):
            ctl.register_data(s)
        ctl.backend.w = 8.0
        received = {0, 2, 3, 4, 5, 6, 7}  # 1 lost
        reacted = False
        for s in (2, 3, 4):
            digest = ctl.on_ack(*ack_for(ctl, s, received))
            reacted = reacted or digest.reacted
        assert reacted
        assert ctl.backend.w < 8.0

    def test_in_flight_realignment_uses_rxw_lead(self):
        sim, ctl = make()
        ctl.backend.tokens = 50.0
        for s in range(30):
            ctl.register_data(s)
        ctl.backend.w = 25.0
        # acker has everything up to 27 except 1: in_flight = 29-27 = 2
        received = set(range(30)) - {1}
        rep = ReceiverReport("r1", 27, 0)
        for s in (2, 3, 4):
            ctl.on_ack(s, build_bitmap(s, received), rep)
        # realigned to 2 then halved -> 1
        assert ctl.backend.w == 1.0

    def test_ack_refreshes_election_state(self):
        sim, ctl = make()
        ctl.register_data(0)
        ctl.on_nak(ReceiverReport("r1", 0, 0))
        ctl.backend.tokens = 5
        for s in range(1, 4):
            ctl.register_data(s)
        ctl.on_ack(*ack_for(ctl, 3, {0, 1, 2, 3}, loss=77))
        assert ctl.election._incumbent.loss_fixed == 77


class TestElectionIntegration:
    def test_first_nak_elects(self):
        _, ctl = make()
        ctl.register_data(0)
        assert ctl.on_nak(ReceiverReport("r1", 0, 0))
        assert ctl.current_acker == "r1"

    def test_initial_election_restores_token(self):
        """§3.6: the fake NAK must restart the ACK clock — packets
        sent before the election carried no acker id."""
        _, ctl = make()
        ctl.register_data(0)
        assert not ctl.can_send
        ctl.on_nak(ReceiverReport("r1", 0, 0))
        assert ctl.can_send

    def test_later_election_does_not_grant_tokens(self):
        """An acker *switch* is not a congestion (or credit) event."""
        sim, ctl = make()
        ctl.register_data(0)
        ctl.on_nak(ReceiverReport("r1", 0, 0))
        ctl.register_data(1)
        assert not ctl.can_send
        tokens = ctl.backend.tokens
        ctl.on_nak(ReceiverReport("r2", 0, 60000))  # much slower -> switch
        assert ctl.current_acker == "r2"
        assert ctl.backend.tokens == tokens

    def test_switch_preserves_window_state(self):
        sim, ctl = make()
        ctl.register_data(0)
        ctl.on_nak(ReceiverReport("r1", 0, 0))
        ctl.backend.w = 12.0
        ctl.on_nak(ReceiverReport("r2", 0, 60000))
        assert ctl.backend.w == 12.0

    def test_cc_disabled_ignores_naks(self):
        _, ctl = make(enabled=False)
        ctl.register_data(0)
        assert not ctl.on_nak(ReceiverReport("r1", 0, 0))
        assert ctl.current_acker is None


class TestAckerHandover:
    def test_old_acker_acks_still_clock_after_switch(self):
        """§3.4: 'a slightly different ack clocking scheme in presence
        of switchover' — packets in flight were stamped with the old
        acker id, so its ACKs must keep regenerating tokens after the
        switch (the acker *moved*, the clock keeps ticking)."""
        sim, ctl = make()
        ctl.register_data(0)
        ctl.on_nak(ReceiverReport("old", 0, 0))
        ctl.backend.tokens = 3.0
        ctl.register_data(1)
        ctl.register_data(2)
        # switch to a much slower receiver
        ctl.on_nak(ReceiverReport("new", 0, 60000))
        assert ctl.current_acker == "new"
        # ACK arriving from the *old* acker for in-flight packets
        digest = ctl.on_ack(*ack_for(ctl, 1, {0, 1}, rx="old"))
        assert digest.newly_acked == [0, 1]
        assert ctl.backend.acks_processed >= 2

    def test_new_acker_bitmap_holes_signal_congestion(self):
        """§4.4: after a switch, congestion shows up as holes in the
        new acker's bitmap, not as out-of-sequence ACKs."""
        sim, ctl = make()
        ctl.register_data(0)
        ctl.on_nak(ReceiverReport("old", 0, 0))
        ctl.backend.tokens = 10.0
        for seq in range(1, 8):
            ctl.register_data(seq)
        ctl.backend.w = 8.0
        ctl.on_nak(ReceiverReport("new", 2, 60000))
        # the new acker missed packet 3
        received = {0, 1, 2, 4, 5, 6, 7}
        reacted = False
        for seq in (4, 5, 6):
            digest = ctl.on_ack(
                seq, build_bitmap(seq, received),
                ReceiverReport("new", seq, 60000),
            )
            reacted = reacted or digest.reacted
        assert reacted
        assert ctl.backend.w < 8.0


class TestStallHandling:
    def test_stall_restarts_window(self):
        sim, ctl = make()
        ctl.register_data(0)  # no ACK will come
        sim.run(until=30.0)
        assert ctl.stalls >= 1
        assert ctl.backend.tokens >= 1.0

    def test_repeated_stalls_requests_fresh_election(self):
        sim, ctl = make()
        stalled = []
        ctl.on_stall = lambda: stalled.append(sim.now)
        seq = 0
        ctl.register_data(seq)
        ctl.on_nak(ReceiverReport("r1", 0, 0))

        def send_more():
            nonlocal seq
            if ctl.can_send:
                seq += 1
                ctl.register_data(seq)
            if len(stalled) < ELICIT_AFTER_STALLS:
                sim.schedule(1.0, send_more)

        sim.schedule(1.0, send_more)
        sim.run(until=60.0)
        assert len(stalled) >= ELICIT_AFTER_STALLS
        assert ctl.elicit_nak  # next packet re-elicits
        assert ctl.current_acker is None

    def test_idle_session_does_not_stall(self):
        sim, ctl = make()
        ctl.register_data(0)
        ctl.on_ack(*ack_for(ctl, 0, {0}))
        stalls_before = ctl.stalls
        sim.run(until=60.0)
        assert ctl.stalls == stalls_before

    def test_srtt_measured_from_acks(self):
        sim, ctl = make()
        ctl.register_data(0)
        sim.schedule(0.2, lambda: ctl.on_ack(*ack_for(ctl, 0, {0})))
        sim.run(until=1.0)
        assert ctl.srtt == pytest.approx(0.2)

    def test_close_cancels_timer(self):
        sim, ctl = make()
        ctl.register_data(0)
        ctl.close()
        sim.run(until=60.0)
        assert ctl.stalls == 0
