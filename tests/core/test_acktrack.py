"""Tests for ACK-bitmap accounting and loss detection (§3.3, §3.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acktrack import (
    BITMAP_BITS,
    AckTracker,
    bitmap_contains,
    bitmap_covers,
    build_bitmap,
)


class TestBitmapHelpers:
    def test_build_sets_bit_zero_for_ack_seq(self):
        bitmap = build_bitmap(10, {10})
        assert bitmap & 1

    def test_build_skips_missing(self):
        bitmap = build_bitmap(10, {10, 8})
        assert bitmap_contains(10, bitmap, 10)
        assert not bitmap_contains(10, bitmap, 9)
        assert bitmap_contains(10, bitmap, 8)

    def test_width_is_32(self):
        received = set(range(100))
        bitmap = build_bitmap(60, received)
        assert bitmap_covers(60, 60 - 31)
        assert not bitmap_covers(60, 60 - 32)
        assert bitmap < (1 << BITMAP_BITS)

    def test_negative_seqs_ignored(self):
        bitmap = build_bitmap(2, {0, 1, 2})
        assert bitmap == 0b111

    @given(st.integers(min_value=0, max_value=1000),
           st.sets(st.integers(min_value=0, max_value=1000), max_size=64))
    @settings(max_examples=200)
    def test_contains_matches_build(self, ack_seq, received):
        bitmap = build_bitmap(ack_seq, received)
        for seq in range(max(0, ack_seq - BITMAP_BITS + 1), ack_seq + 1):
            assert bitmap_contains(ack_seq, bitmap, seq) == (seq in received)


class TestTrackerBasics:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            AckTracker(0)

    def test_duplicate_send_rejected(self):
        tracker = AckTracker()
        tracker.on_data_sent(0)
        with pytest.raises(ValueError):
            tracker.on_data_sent(0)

    def test_out_of_order_send_rejected(self):
        """``on_ack`` walks the table in send order, so a send that
        does not exceed the last one fails early; ``reset()`` re-opens
        the table."""
        tracker = AckTracker()
        tracker.on_data_sent(5)
        with pytest.raises(ValueError):
            tracker.on_data_sent(3)
        with pytest.raises(ValueError):
            tracker.on_data_sent(5)
        tracker.on_ack(5, build_bitmap(5, {5}))
        with pytest.raises(ValueError):
            tracker.on_data_sent(4)  # still rejected once 5 is acked
        tracker.reset()
        tracker.on_data_sent(0)
        assert tracker.outstanding() == [0]

    def test_simple_ack_clears_outstanding(self):
        tracker = AckTracker()
        tracker.on_data_sent(0)
        outcome = tracker.on_ack(0, build_bitmap(0, {0}))
        assert outcome.newly_acked == [0]
        assert tracker.outstanding_count == 0

    def test_bitmap_recovers_lost_ack(self):
        """§3.3: each ACK is effectively transmitted multiple times."""
        tracker = AckTracker()
        tracker.on_data_sent(0)
        tracker.on_data_sent(1)
        # ACK for 0 lost; ACK for 1 carries both in its bitmap.
        outcome = tracker.on_ack(1, build_bitmap(1, {0, 1}))
        assert outcome.newly_acked == [0, 1]

    def test_out_of_order_ack_accepted(self):
        tracker = AckTracker()
        for s in range(3):
            tracker.on_data_sent(s)
        tracker.on_ack(2, build_bitmap(2, {0, 1, 2}))
        outcome = tracker.on_ack(1, build_bitmap(1, {0, 1}))
        assert not outcome.is_new_high
        assert tracker.duplicate_acks == 1

    def test_ack_for_unknown_seq_harmless(self):
        tracker = AckTracker()
        outcome = tracker.on_ack(5, build_bitmap(5, {5}))
        assert outcome.newly_acked == []


class TestLossDetection:
    def test_loss_after_dupack_threshold(self):
        """A packet missed by 3 subsequent ACKs is declared lost."""
        tracker = AckTracker(dupack_threshold=3)
        for s in range(5):
            tracker.on_data_sent(s)
        received = {0, 2, 3, 4}  # packet 1 lost
        losses = []
        for s in (2, 3, 4):
            outcome = tracker.on_ack(s, build_bitmap(s, received))
            losses.extend(outcome.losses)
        assert losses == [1]
        assert not tracker.is_outstanding(1)

    def test_no_loss_below_threshold(self):
        tracker = AckTracker(dupack_threshold=3)
        for s in range(4):
            tracker.on_data_sent(s)
        received = {0, 2, 3}
        outcome2 = tracker.on_ack(2, build_bitmap(2, received))
        outcome3 = tracker.on_ack(3, build_bitmap(3, received))
        assert outcome2.losses == outcome3.losses == []
        assert tracker.is_outstanding(1)

    def test_late_bitmap_arrival_cancels_miss_count(self):
        """A repair-path ACK covering the packet rescinds suspicion."""
        tracker = AckTracker(dupack_threshold=3)
        for s in range(4):
            tracker.on_data_sent(s)
        tracker.on_ack(2, build_bitmap(2, {0, 2}))  # 1 missing (count 1)
        # next ACK's bitmap includes 1 (reordered delivery)
        outcome = tracker.on_ack(3, build_bitmap(3, {0, 1, 2, 3}))
        assert 1 in outcome.newly_acked
        assert outcome.losses == []

    def test_each_covering_ack_counts_once(self):
        tracker = AckTracker(dupack_threshold=2)
        tracker.on_data_sent(0)
        tracker.on_data_sent(1)
        tracker.on_data_sent(2)
        received = {1, 2}
        tracker.on_ack(1, build_bitmap(1, received))
        outcome = tracker.on_ack(2, build_bitmap(2, received))
        assert outcome.losses == [0]

    def test_duplicate_acks_count_toward_losses(self):
        """Replayed ACKs with the same ack_seq keep counting, like
        TCP duplicate ACKs."""
        tracker = AckTracker(dupack_threshold=3)
        tracker.on_data_sent(0)
        tracker.on_data_sent(1)
        bitmap = build_bitmap(1, {1})
        losses = []
        for _ in range(3):
            losses.extend(tracker.on_ack(1, bitmap).losses)
        assert losses == [0]

    def test_reset_forgets_everything(self):
        tracker = AckTracker()
        tracker.on_data_sent(0)
        tracker.on_ack(0, 0)
        tracker.reset()
        assert tracker.outstanding_count == 0
        assert tracker.highest_ack_seq == -1


class TestTrackerProperties:
    @given(
        st.integers(min_value=5, max_value=60),
        st.sets(st.integers(min_value=0, max_value=59), max_size=20),
    )
    @settings(max_examples=100)
    def test_every_packet_acked_or_lost_eventually(self, n, lost):
        """With ACKs for every received packet, each sent packet ends
        up either newly_acked or declared lost — never both, never
        neither (conservation)."""
        tracker = AckTracker(dupack_threshold=3)
        lost = {s for s in lost if s < n - 4}  # keep tail ACKs flowing
        received: set[int] = set()
        acked, declared = set(), set()
        for s in range(n):
            tracker.on_data_sent(s)
            if s in lost:
                continue
            received.add(s)
            outcome = tracker.on_ack(s, build_bitmap(s, received))
            acked.update(outcome.newly_acked)
            declared.update(outcome.losses)
        assert acked & declared == set()
        assert acked | declared | set(tracker.outstanding()) == set(range(n))
        assert declared == lost

    @given(st.data())
    @settings(max_examples=50)
    def test_outstanding_never_negative_or_duplicated(self, data):
        tracker = AckTracker()
        sent = 0
        for _ in range(30):
            if data.draw(st.booleans()):
                tracker.on_data_sent(sent)
                sent += 1
            elif sent:
                seq = data.draw(st.integers(min_value=0, max_value=sent - 1))
                tracker.on_ack(seq, data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
            outs = tracker.outstanding()
            assert len(outs) == len(set(outs))
            assert tracker.outstanding_count >= 0


class _CountingTable(dict):
    """An outstanding table that counts the entries a walk visits."""

    visits = 0

    def __iter__(self):
        for key in super().__iter__():
            self.visits += 1
            yield key

    def items(self):
        for item in super().items():
            self.visits += 1
            yield item


class TestAckWork:
    def test_an_ack_visits_the_holes_and_the_acked_packet_only(self):
        """1000 packets in flight, in-order ACKs, one hole: each ACK
        walks the entries at or below ``ack_seq`` plus the first one
        past it, not the whole table."""
        in_flight, hole = 1000, 100
        tracker = AckTracker()
        tracker._outstanding = table = _CountingTable()
        for seq in range(in_flight):
            tracker.on_data_sent(seq)
        received: set[int] = set()
        for seq in range(2 * in_flight):
            if seq != hole:
                received.add(seq)
                holes = int(tracker.is_outstanding(hole))
                table.visits = 0
                tracker.on_ack(seq, build_bitmap(seq, received))
                assert table.visits <= holes + 2
            tracker.on_data_sent(seq + in_flight)
            assert tracker.outstanding_count >= in_flight - 1
        assert not tracker.is_outstanding(hole)
