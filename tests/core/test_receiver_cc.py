"""Tests for receiver-side measurement state (§3.2, §3.3)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acktrack import bitmap_contains
from repro.core.receiver_cc import ReceiverController


class TestDataIngest:
    def test_in_order_stream(self):
        rc = ReceiverController("r")
        for s in range(10):
            outcome = rc.on_data(s, now=float(s))
            assert list(outcome.new_gaps) == []
            assert outcome.advanced_lead
        assert rc.rxw_lead == 9
        assert rc.loss_filter.value == 0

    def test_gap_detection(self):
        rc = ReceiverController("r")
        rc.on_data(0, 0.0)
        outcome = rc.on_data(3, 1.0)
        assert list(outcome.new_gaps) == [1, 2]
        assert rc.rxw_lead == 3

    def test_gap_feeds_loss_filter(self):
        rc = ReceiverController("r")
        rc.on_data(0, 0.0)
        rc.on_data(2, 1.0)
        assert rc.loss_filter.losses == 1
        assert rc.loss_filter.value > 0

    def test_duplicate_detected(self):
        rc = ReceiverController("r")
        rc.on_data(0, 0.0)
        outcome = rc.on_data(0, 1.0)
        assert outcome.duplicate
        assert rc.duplicates == 1

    def test_a_returned_outcome_cannot_be_mutated(self):
        """Gap-free outcomes are shared between calls and receivers; a
        caller that could write to one would corrupt every later one."""
        rc = ReceiverController("r")
        in_order = rc.on_data(0, 0.0)
        duplicate = rc.on_data(0, 1.0)
        gapped = rc.on_data(3, 2.0)
        for outcome in (in_order, duplicate, gapped):
            with pytest.raises(dataclasses.FrozenInstanceError):
                outcome.duplicate = True
            with pytest.raises(dataclasses.FrozenInstanceError):
                outcome.new_gaps = [7]
            assert not hasattr(outcome.new_gaps, "append")
        assert ReceiverController("other").on_data(9, 0.0) is in_order

    def test_repair_fills_gap_without_touching_filter(self):
        """The loss signal measures original transmissions; a repair
        must not lower (or raise) the measured loss."""
        rc = ReceiverController("r")
        rc.on_data(0, 0.0)
        rc.on_data(2, 1.0)
        losses_before = rc.loss_filter.losses
        samples_before = rc.loss_filter.samples
        outcome = rc.on_data(1, 2.0)  # the repair
        assert not outcome.duplicate
        assert not outcome.advanced_lead
        assert rc.loss_filter.losses == losses_before
        assert rc.loss_filter.samples == samples_before

    def test_first_packet_anchors_window(self):
        """A mid-session joiner must not count history as lost."""
        rc = ReceiverController("r")
        outcome = rc.on_data(5000, 0.0)
        assert list(outcome.new_gaps) == []
        assert rc.rxw_lead == 5000
        assert rc.loss_filter.losses == 0

    def test_sample_observer_sees_signal(self):
        rc = ReceiverController("r")
        samples = []
        rc.sample_observer = lambda seq, lost: samples.append((seq, lost))
        rc.on_data(0, 0.0)
        rc.on_data(2, 1.0)
        assert samples == [(0, False), (1, True), (2, False)]


class TestReports:
    def test_report_fields(self):
        rc = ReceiverController("r9")
        rc.on_data(0, 0.0)
        rc.on_data(2, 1.0)
        rep = rc.report()
        assert rep.rx_id == "r9"
        assert rep.rxw_lead == 2
        assert rep.rx_loss == rc.loss_filter.value
        assert rep.timestamp_echo is None

    def test_report_before_any_data(self):
        rep = ReceiverController("r").report()
        assert rep.rxw_lead == 0

    def test_timestamp_echo_corrects_hold_time(self):
        """§3.2.1: the echo is corrected by the local hold so NAK
        suppression delays do not inflate the RTT."""
        rc = ReceiverController("r")
        rc.on_data(0, now=10.0, sender_timestamp=9.5)
        rep = rc.report(include_timestamp=True, now=10.3)
        # echo = sender_ts + hold = 9.5 + 0.3
        assert rep.timestamp_echo == pytest.approx(9.8)

    def test_no_echo_without_request(self):
        rc = ReceiverController("r")
        rc.on_data(0, 1.0, sender_timestamp=0.5)
        assert rc.report().timestamp_echo is None


class TestBitmap:
    def test_bitmap_reflects_receive_state(self):
        rc = ReceiverController("r")
        for s in (0, 1, 3, 4):
            rc.on_data(s, float(s))
        bitmap = rc.ack_bitmap(4)
        assert bitmap_contains(4, bitmap, 4)
        assert bitmap_contains(4, bitmap, 3)
        assert not bitmap_contains(4, bitmap, 2)
        assert bitmap_contains(4, bitmap, 1)

    def test_pruning_keeps_bitmap_window(self):
        rc = ReceiverController("r")
        for s in range(2000):
            rc.on_data(s, float(s))
        bitmap = rc.ack_bitmap(1999)
        assert bitmap == (1 << 32) - 1  # all of the last 32 present

    def test_has_received(self):
        rc = ReceiverController("r")
        rc.on_data(7, 0.0)
        assert rc.has_received(7)
        assert not rc.has_received(6)


class TestReceiverProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=400))
    @settings(max_examples=100)
    def test_filter_losses_match_gap_slots(self, pattern):
        """Feeding an arrival pattern seq-by-seq: the filter's loss
        count equals the number of dropped slots before the last
        arrival (trailing losses are not yet detectable)."""
        rc = ReceiverController("r")
        for seq, arrived in enumerate(pattern):
            if arrived:
                rc.on_data(seq, float(seq))
        arrived_seqs = [i for i, a in enumerate(pattern) if a]
        if not arrived_seqs:
            assert rc.loss_filter.samples == 0
            return
        first, last = arrived_seqs[0], arrived_seqs[-1]
        expected_losses = sum(
            1 for i in range(first, last) if not pattern[i]
        )
        assert rc.loss_filter.losses == expected_losses
        assert rc.rxw_lead == last

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_arbitrary_order_never_crashes_lead_monotone(self, seqs):
        rc = ReceiverController("r")
        lead = -1
        for s in seqs:
            rc.on_data(s, 0.0)
            assert rc.rxw_lead >= lead
            lead = rc.rxw_lead
