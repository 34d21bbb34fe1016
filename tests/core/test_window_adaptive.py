"""Focused tests on window-controller corner cases and interactions."""

import pytest

from repro.core.window import WindowController


class TestIgnoreWindowInteraction:
    def test_ignore_count_uses_post_halving_window(self):
        """'ignore next W/2 acks' with W the pre-halving value equals
        the post-halving window size."""
        ctl = WindowController(ssthresh=1)
        ctl.w = 20.0
        ctl.on_congestion(1, 30, None, 0.0)
        assert ctl.w == 10.0
        assert ctl.ignore_acks == 10

    def test_back_to_back_reactions_compound(self):
        ctl = WindowController(ssthresh=1)
        ctl.w = 32.0
        ctl.on_congestion(10, 20, None, 0.0)
        ctl.on_ack(0.0)  # drains one ignored ack
        ctl.on_congestion(25, 40, None, 0.0)  # past recovery point 20 -> new reaction
        assert ctl.w == 8.0

    def test_ignored_acks_then_growth_resumes(self):
        ctl = WindowController(ssthresh=1)
        ctl.w = 8.0
        ctl.on_congestion(1, 10, None, 0.0)
        for _ in range(ctl.ignore_acks):
            ctl.on_ack(0.0)
        w = ctl.w
        tokens = ctl.tokens
        ctl.on_ack(0.0)
        assert ctl.w > w
        assert ctl.tokens > tokens

    def test_restart_clears_ignore_state(self):
        ctl = WindowController(ssthresh=1)
        ctl.w = 16.0
        ctl.on_congestion(1, 10, None, 0.0)
        ctl.on_timeout(0.0)
        assert ctl.ignore_acks == 0
        ctl.on_ack(0.0)
        assert ctl.tokens > 1.0  # acks count again immediately


class TestRecoveryWindow:
    def test_boundary_sequence_is_inside_recovery(self):
        ctl = WindowController(ssthresh=1)
        ctl.w = 8.0
        ctl.on_congestion(5, 20, None, 0.0)
        # a loss exactly at the recorded last_tx_seq is the same event
        assert not ctl.on_congestion(20, 25, None, 0.0)
        assert ctl.on_congestion(21, 30, None, 0.0)

    def test_restart_clears_recovery(self):
        ctl = WindowController(ssthresh=1)
        ctl.w = 8.0
        ctl.on_congestion(5, 20, None, 0.0)
        ctl.on_timeout(0.0)
        assert ctl.on_congestion(6, 21, None, 0.0)  # reacts again after restart


class TestAdaptiveVsFixedGrowthPaths:
    def test_adaptive_keeps_exponential_far_longer(self):
        fixed = WindowController(ssthresh=6)
        adaptive = WindowController(adaptive_ssthresh=True)
        for _ in range(40):
            fixed.on_ack(0.0)
            adaptive.on_ack(0.0)
        # fixed: 6 exponential steps then ~34 linear ones; adaptive:
        # still in slow start, one per ack
        assert adaptive.w == pytest.approx(41.0)
        assert fixed.w < 15.0

    def test_adaptive_threshold_tracks_each_halving(self):
        ctl = WindowController(adaptive_ssthresh=True)
        ctl.w = 64.0
        ctl.on_congestion(1, 10, 64, 0.0)
        assert ctl.ssthresh == 32.0
        ctl.on_congestion(11, 20, 32, 0.0)
        assert ctl.ssthresh == 16.0

    def test_adaptive_floor_two(self):
        ctl = WindowController(adaptive_ssthresh=True)
        ctl.w = 1.5
        ctl.on_congestion(1, 10, None, 0.0)
        assert ctl.ssthresh == 2.0
