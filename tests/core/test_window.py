"""Tests for the window/token controller (§3.4)."""

import pytest

from repro.core.window import WindowController


class TestInitialState:
    def test_starts_at_one_one(self):
        ctl = WindowController()
        assert ctl.w == 1.0
        assert ctl.tokens == 1.0
        assert ctl.can_send

    def test_restart_resets(self):
        ctl = WindowController()
        ctl.on_send(0, 0.0)
        for _ in range(10):
            ctl.on_ack(0.0)
        ctl.on_timeout(0.0)
        assert ctl.w == 1.0
        assert ctl.tokens == 1.0
        assert ctl.ignore_acks == 0
        assert ctl.recovery_seq is None

    def test_ssthresh_validation(self):
        with pytest.raises(ValueError):
            WindowController(ssthresh=0)


class TestTokens:
    def test_transmit_consumes_token(self):
        ctl = WindowController()
        ctl.on_send(0, 0.0)
        assert ctl.tokens == 0.0
        assert not ctl.can_send

    def test_transmit_without_token_raises(self):
        ctl = WindowController()
        ctl.on_send(0, 0.0)
        with pytest.raises(RuntimeError):
            ctl.on_send(0, 0.0)

    def test_ack_regenerates_one_plus_1_over_w(self):
        """Paper: on ACK, T = T + 1 + 1/W."""
        ctl = WindowController(ssthresh=1)  # disable slow start
        ctl.on_send(0, 0.0)
        ctl.on_ack(0.0)
        # W grew 1 -> 2 first, then T += 1 + 1/2
        assert ctl.tokens == pytest.approx(1.5)

    def test_token_cap(self):
        ctl = WindowController(max_tokens=2.0)
        for _ in range(10):
            ctl.on_ack(0.0)
        assert ctl.tokens == 2.0


class TestWindowGrowth:
    def test_exponential_opening_below_ssthresh(self):
        """§3.4: exponential opening up to the fixed size of 6."""
        ctl = WindowController(ssthresh=6)
        for _ in range(5):
            ctl.on_ack(0.0)
        assert ctl.w == pytest.approx(6.0)

    def test_linear_increase_above_ssthresh(self):
        ctl = WindowController(ssthresh=6)
        for _ in range(5):
            ctl.on_ack(0.0)
        w = ctl.w
        ctl.on_ack(0.0)
        assert ctl.w == pytest.approx(w + 1.0 / w)

    def test_window_opens_one_per_rtt_in_avoidance(self):
        """W ACKs (one RTT's worth) grow W by ~1, as in TCP."""
        ctl = WindowController(ssthresh=1)
        ctl.w = 10.0
        for _ in range(10):
            ctl.on_ack(0.0)
        assert ctl.w == pytest.approx(11.0, abs=0.06)


class TestLossReaction:
    def make_at(self, w):
        ctl = WindowController(ssthresh=1)
        ctl.w = w
        return ctl

    def test_halving(self):
        ctl = self.make_at(16.0)
        reacted = ctl.on_congestion(loss_seq=10, last_tx_seq=30, in_flight=None, now=0.0)
        assert reacted
        assert ctl.w == 8.0

    def test_ignore_next_half_window_acks(self):
        """Paper: ignore next W/2 ACKs (no token, no growth)."""
        ctl = self.make_at(16.0)
        ctl.on_congestion(10, 30, None, 0.0)
        assert ctl.ignore_acks == 8
        tokens = ctl.tokens
        w = ctl.w
        for _ in range(8):
            ctl.on_ack(0.0)
        assert ctl.tokens == tokens
        assert ctl.w == w
        ctl.on_ack(0.0)  # ninth ACK counts again
        assert ctl.tokens > tokens

    def test_realign_to_in_flight_before_halving(self):
        """§3.4: realign W to the actual packets in flight so errors
        do not accumulate."""
        ctl = self.make_at(40.0)
        ctl.on_congestion(10, 30, 12, 0.0)
        assert ctl.w == 6.0  # min(40, 12)/2

    def test_one_reaction_per_rtt(self):
        ctl = self.make_at(16.0)
        assert ctl.on_congestion(10, 30, None, 0.0)
        assert not ctl.on_congestion(12, 32, None, 0.0)  # within recovery (<= seq 30)
        assert ctl.w == 8.0
        assert ctl.on_congestion(31, 50, None, 0.0)  # past recovery point
        assert ctl.w == 4.0

    def test_window_floor_is_one(self):
        ctl = self.make_at(1.0)
        ctl.on_congestion(1, 2, None, 0.0)
        assert ctl.w == 1.0

    def test_counters(self):
        ctl = self.make_at(8.0)
        ctl.on_congestion(1, 10, None, 0.0)
        ctl.on_congestion(2, 10, None, 0.0)
        assert ctl.losses_reacted == 1
        assert ctl.losses_ignored == 1

    def test_realign_ignores_zero_in_flight(self):
        ctl = self.make_at(8.0)
        ctl.on_congestion(1, 10, 0, 0.0)
        assert ctl.w == 4.0


class TestAimdShape:
    def test_sawtooth_cycle(self):
        """A full AIMD cycle: grow from W/2 back to W takes ~W/2 RTTs
        of ACKs; throughput stays within the classic bounds."""
        ctl = WindowController(ssthresh=1)
        ctl.w = 20.0
        ctl.on_congestion(0, 100, None, 0.0)
        assert ctl.w == 10.0
        acks = 0
        while ctl.w < 20.0:
            ctl.on_ack(0.0)
            acks += 1
        # sum over w from 10..20 of w acks each ~ 150, plus ignored 10
        assert 140 < acks < 180

    def test_snapshot(self):
        ctl = WindowController()
        snap = ctl.state_summary()
        assert {k: snap[k] for k in ("w", "tokens", "ignore_acks", "recovery_seq")} == {
            "w": 1.0, "tokens": 1.0, "ignore_acks": 0, "recovery_seq": None}
