"""Unit tests for the sender-side feedback guard (repro.pgm.guard).

The guard is exercised directly against a stub clock: each test drives
one plausibility rule with hand-built reports/ACKs and asserts the
verdict, the suspicion bookkeeping, and the quarantine lifecycle.
"""

import pytest

from repro.core.loss_filter import SCALE
from repro.core.reports import ReceiverReport
from repro.pgm import guard as G
from repro.pgm.guard import RULES, FeedbackGuard

FULL = 0xFFFFFFFF


class Clock:
    """Minimal stand-in for the event engine: just a settable now."""

    def __init__(self):
        self.now = 0.0


def rep(lead, loss=0, rx="r0"):
    return ReceiverReport(rx_id=rx, rxw_lead=lead, rx_loss=loss)


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def guard(clock):
    return FeedbackGuard(clock)


class TestStrongRules:
    def test_lead_beyond_tx(self, guard):
        v = guard.on_nak(rep(500), last_tx_seq=100, requests_repair=False)
        assert v.violations == ["lead-beyond-tx"]
        assert guard.violation_counts["lead-beyond-tx"] == 1

    def test_ack_unsent(self, guard):
        v = guard.on_ack(150, FULL, rep(90), last_tx_seq=100)
        assert v.violations == ["ack-unsent"]

    def test_ack_beyond_lead(self, guard):
        # acking 90 while claiming the window only reaches 50: an
        # honest receiver reports after absorbing the acked packet
        v = guard.on_ack(90, FULL, rep(50), last_tx_seq=100)
        assert v.violations == ["ack-beyond-lead"]

    def test_clean_ack_has_no_violations(self, guard):
        v = guard.on_ack(90, FULL, rep(95), last_tx_seq=100)
        assert v.violations == []
        assert v.allow_control and not v.drop


class TestLeadRegression:
    def test_large_regression_flagged(self, guard):
        guard.on_nak(rep(1000), last_tx_seq=2000, requests_repair=False)
        v = guard.on_nak(rep(900), last_tx_seq=2000, requests_repair=False)
        assert v.violations == ["lead-regression"]

    def test_small_regression_tolerated(self, guard):
        # reordered feedback legitimately carries slightly stale leads
        guard.on_nak(rep(1000), last_tx_seq=2000, requests_repair=False)
        v = guard.on_nak(rep(1000 - 32), last_tx_seq=2000,
                         requests_repair=False)
        assert v.violations == []


class TestLossRange:
    def test_teleported_loss_flagged(self, guard):
        guard.on_nak(rep(100, 0), last_tx_seq=2000, requests_repair=False)
        v = guard.on_nak(rep(106, int(0.4 * SCALE)), last_tx_seq=2000,
                         requests_repair=False)
        assert v.violations == ["loss-range"]

    def test_lie_does_not_become_baseline(self, guard):
        """A teleported claim must keep firing, not legitimise itself."""
        guard.on_nak(rep(100, 0), last_tx_seq=2000, requests_repair=False)
        hits = 0
        for i in range(1, 6):
            v = guard.on_nak(rep(100 + 6 * i, int(0.4 * SCALE)),
                             last_tx_seq=2000, requests_repair=False)
            hits += v.violations.count("loss-range")
        assert hits == 5

    def test_gradual_rise_passes(self, guard):
        # a genuine loss burst: the filter can move (1 - W**n) per n
        # slots, so a slow climb is always inside the reachable band
        guard.on_nak(rep(100, 0), last_tx_seq=5000, requests_repair=False)
        loss = 0
        for i in range(1, 10):
            loss = int(SCALE * (1 - (65000 / 65536) ** (20 * i)) * 0.8)
            v = guard.on_nak(rep(100 + 20 * i, loss), last_tx_seq=5000,
                             requests_repair=False)
            assert v.violations == []

    def test_stationary_window_tolerates_jitter_only(self, guard):
        guard.on_nak(rep(100, 1000), last_tx_seq=2000, requests_repair=False)
        ok = guard.on_nak(rep(100, 1100), last_tx_seq=2000,
                          requests_repair=False)
        assert ok.violations == []
        bad = guard.on_nak(rep(100, 9000), last_tx_seq=2000,
                           requests_repair=False)
        assert bad.violations == ["loss-range"]


class TestShadowDivergence:
    @pytest.fixture
    def guard(self, clock):
        # isolate the shadow rule from the range rule
        return FeedbackGuard(clock, check_loss_range=False)

    def _mature_shadow(self, guard, acks=10):
        """Feed loss-free bitmaps until the shadow is judged usable."""
        for i in range(1, acks + 1):
            seq = 32 * i
            guard.on_ack(seq, FULL, rep(seq), last_tx_seq=10_000)

    def test_overclaim_against_loss_free_bitmaps(self, guard):
        self._mature_shadow(guard)
        hits = 0
        for i in range(5):
            v = guard.on_nak(rep(320 + i, int(0.4 * SCALE)),
                             last_tx_seq=10_000, requests_repair=False)
            hits += v.violations.count("shadow-divergence")
        assert hits == 1  # fires on the 5th consecutive divergent report

    def test_stale_shadow_never_condemns(self, guard, clock):
        self._mature_shadow(guard)
        clock.now += 5.0  # > shadow_max_age: no bitmaps since
        for i in range(10):
            v = guard.on_nak(rep(320 + i, int(0.4 * SCALE)),
                             last_tx_seq=10_000, requests_repair=False)
            assert "shadow-divergence" not in v.violations

    def test_immature_shadow_not_judged(self, guard):
        self._mature_shadow(guard, acks=3)  # 96 samples < min_updates
        for i in range(10):
            v = guard.on_nak(rep(96 + i, int(0.4 * SCALE)),
                             last_tx_seq=10_000, requests_repair=False)
            assert "shadow-divergence" not in v.violations


class TestNakBucket:
    def test_flood_drops_and_accrues_suspicion(self, guard):
        dropped = 0
        for i in range(int(G.NAK_BURST) + 50):
            v = guard.on_nak(rep(100), last_tx_seq=2000)
            dropped += v.drop
        assert dropped == 50
        assert guard.violation_counts["nak-flood"] == 50

    def test_paced_naks_never_drop(self, guard, clock):
        # §3.8-compliant pacing (50/s) stays under the 60/s refill
        for _ in range(300):
            clock.now += 0.02
            v = guard.on_nak(rep(100), last_tx_seq=2000)
            assert not v.drop

    def test_fake_naks_spend_no_tokens(self, guard):
        for _ in range(500):
            v = guard.on_nak(rep(100), last_tx_seq=2000,
                             requests_repair=False)
            assert not v.drop


class TestQuarantineLifecycle:
    def _strong(self, guard, n):
        for _ in range(n):
            guard.on_nak(rep(9999), last_tx_seq=100, requests_repair=False)

    def test_two_strong_violations_quarantine(self, guard):
        self._strong(guard, 1)
        assert not guard.is_quarantined("r0")
        self._strong(guard, 1)
        assert guard.is_quarantined("r0")
        assert guard.quarantines == 1
        assert guard.quarantined_ids() == ["r0"]

    def test_quarantine_blocks_control_not_ingress(self, guard):
        self._strong(guard, 2)
        v = guard.on_ack(50, FULL, rep(60), last_tx_seq=100)
        assert not v.allow_control
        assert not v.drop  # the packet itself is not discarded
        assert guard.control_blocked >= 1

    def test_readmission_after_backoff(self, guard, clock):
        self._strong(guard, 2)
        assert guard.is_quarantined("r0")
        clock.now += G.QUARANTINE_BASE + 0.1
        assert not guard.is_quarantined("r0")
        v = guard.on_ack(50, FULL, rep(60), last_tx_seq=100)
        assert v.allow_control
        # probation: readmitted with half the threshold already accrued
        assert guard.suspicion("r0") > 0

    def test_backoff_doubles(self, guard, clock):
        self._strong(guard, 2)
        first = guard._ledgers["r0"].quarantined_until - clock.now
        clock.now += G.QUARANTINE_BASE + 1.0
        self._strong(guard, 2)
        second = guard._ledgers["r0"].quarantined_until - clock.now
        assert second == pytest.approx(first * G.QUARANTINE_BACKOFF)

    def test_suspicion_decays(self, guard, clock):
        self._strong(guard, 1)
        s0 = guard.suspicion("r0")
        clock.now += G.SUSPICION_DECAY_TAU
        assert guard.suspicion("r0") == pytest.approx(s0 / 2.718, rel=0.01)


class TestReplayDedup:
    def test_verbatim_replay_dropped_without_suspicion(self, guard):
        guard.on_ack(50, FULL, rep(60), last_tx_seq=100)
        v = guard.on_ack(50, FULL, rep(60), last_tx_seq=100)
        assert v.drop and not v.allow_control
        assert guard.acks_deduped == 1
        assert guard.suspicion("r0") == 0.0

    def test_expired_signature_is_fresh_again(self, guard, clock):
        # a stall-elicited keep-alive ACK is verbatim-identical to the
        # previous one; only rapid-fire duplicates are replays
        guard.on_ack(50, FULL, rep(60), last_tx_seq=100)
        clock.now += G.REPLAY_TTL + 0.1
        v = guard.on_ack(50, FULL, rep(60), last_tx_seq=100)
        assert not v.drop
        assert guard.acks_deduped == 0

    def test_distinct_acks_pass(self, guard):
        for seq in range(50, 60):
            v = guard.on_ack(seq, FULL, rep(seq + 5), last_tx_seq=100)
            assert not v.drop


class TestQuarantinedRepairBudget:
    def test_budget_bound_by_transmission(self, guard):
        # quarantine r0 first (two physical impossibilities)
        for _ in range(2):
            guard.on_nak(rep(9999), last_tx_seq=100, requests_repair=False)
        assert guard.is_quarantined("r0")
        # with the sender not transmitting, only the burst allowance
        # passes — a storm cannot outrun the data rate
        passed = sum(
            not guard.on_nak(rep(90), last_tx_seq=100).drop
            for _ in range(200)
        )
        assert passed == int(G.QUARANTINE_REPAIR_BURST)
        # each newly transmitted packet funds one more repair
        v = guard.on_nak(rep(90), last_tx_seq=110)
        assert not v.drop

    def test_unquarantined_budget_is_wall_clock(self, guard, clock):
        # drain most of the bucket in a burst...
        for _ in range(100):
            guard.on_nak(rep(90), last_tx_seq=100)
        led = guard._ledgers["r0"]
        drained = led.nak_tokens
        # ...then one second refills nak_rate tokens with zero new tx
        clock.now += 1.0
        guard.on_nak(rep(90), last_tx_seq=100)
        assert led.nak_tokens == pytest.approx(
            drained + G.NAK_RATE - 1.0)


class TestSummary:
    def test_summary_shape(self, guard):
        guard.on_nak(rep(9999), last_tx_seq=100, requests_repair=False)
        s = guard.summary()
        assert s["receivers_tracked"] == 1
        assert s["violations"] == {"lead-beyond-tx": 1}
        assert "r0" in s["suspects"]
        assert set(guard.violation_counts) == set(RULES)
