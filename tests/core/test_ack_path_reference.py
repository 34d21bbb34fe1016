"""Differential oracles for the ACK path (§3.3).

Both ends of an ACK used to rescan: the sender's ``AckTracker.on_ack``
probed all 32 bitmap positions and then looped over the whole
outstanding table, and the receiver rebuilt every ACK bitmap with 32
lookups into a receive *set* pruned by comprehension.  The classes
below are those two implementations, kept verbatim as references:
``TwoLoopAckTracker`` for the tracker's one ascending pass, and
``SetReceiverController`` for the receive bitmap anchored at
``rxw_lead``.  Hypothesis drives each pair with the same inputs and
requires equal answers and equal state after every step.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.acktrack import BITMAP_BITS, AckOutcome, AckTracker, build_bitmap
from repro.core.loss_filter import LossRateFilter
from repro.core.receiver_cc import _PRUNE_MARGIN, DataOutcome, ReceiverController

_DUPLICATE = DataOutcome(duplicate=True)
_ADVANCED = DataOutcome(advanced_lead=True)
_FILLED = DataOutcome()


class TwoLoopAckTracker:
    """The outstanding table with a 32-probe harvest and a full scan."""

    def __init__(self, dupack_threshold):
        self.dupack_threshold = dupack_threshold
        self._outstanding: dict[int, int] = {}
        self.highest_ack_seq: int = -1
        self.acks_received = 0
        self.duplicate_acks = 0

    def on_data_sent(self, seq: int) -> None:
        """Record an original ODATA transmission."""
        if seq in self._outstanding:
            raise ValueError(f"sequence {seq} already outstanding")
        self._outstanding[seq] = 0

    def reset(self) -> None:
        """Forget everything (stall restart)."""
        self._outstanding.clear()
        self.highest_ack_seq = -1

    def on_ack(self, ack_seq: int, bitmap: int) -> AckOutcome:
        """Digest one ACK; returns newly acked packets and declared losses."""
        self.acks_received += 1
        outcome = AckOutcome()
        outcome.is_new_high = ack_seq > self.highest_ack_seq
        if not outcome.is_new_high:
            self.duplicate_acks += 1
        self.highest_ack_seq = max(self.highest_ack_seq, ack_seq)

        # 1. Harvest everything the bitmap says was received.
        for k in range(BITMAP_BITS):
            seq = ack_seq - k
            if seq < 0:
                break
            if bitmap & (1 << k) and seq in self._outstanding:
                del self._outstanding[seq]
                outcome.newly_acked.append(seq)
        outcome.newly_acked.sort()

        # 2. Dupack accounting for still-missing older packets.
        for seq in list(self._outstanding):
            if seq >= ack_seq:
                continue
            self._outstanding[seq] += 1
            if self._outstanding[seq] >= self.dupack_threshold:
                del self._outstanding[seq]
                outcome.losses.append(seq)
        outcome.losses.sort()
        return outcome


class SetReceiverController:
    """The receive set, pruned by comprehension; bitmaps by lookup."""

    def __init__(self, rx_id: str):
        self.rx_id = rx_id
        self.loss_filter = LossRateFilter()
        self.rxw_lead: int = -1
        self._received: set[int] = set()
        self._prune_floor = 0
        self.data_packets = 0
        self.duplicates = 0
        self.sample_observer = None

    def on_data(self, seq: int, now: float) -> DataOutcome:
        received = self._received
        if seq in received:
            self.duplicates += 1
            return _DUPLICATE

        self.data_packets += 1
        received.add(seq)
        lead = self.rxw_lead
        if seq <= lead:
            # unseen and behind the lead: the slot was already counted
            # as lost when the gap opened
            return _FILLED
        outcome = _ADVANCED
        observer = self.sample_observer
        if lead >= 0 and seq > lead + 1:
            outcome = DataOutcome(tuple(range(lead + 1, seq)), advanced_lead=True)
            for missing in outcome.new_gaps:
                self.loss_filter.update(True)
                if observer is not None:
                    observer(missing, True)
        self.loss_filter.update(False)
        if observer is not None:
            observer(seq, False)
        self.rxw_lead = seq
        if lead >= 0:
            self._maybe_prune()
        return outcome

    def resync(self, new_lead: int) -> int:
        if new_lead <= self.rxw_lead:
            return 0
        old_lead = self.rxw_lead
        skipped = new_lead - old_lead - 1 if old_lead >= 0 else 0
        skipped -= sum(1 for s in self._received if old_lead < s < new_lead)
        self.rxw_lead = new_lead
        self._maybe_prune()
        return max(skipped, 0)

    def _maybe_prune(self) -> None:
        floor = self.rxw_lead - _PRUNE_MARGIN
        if floor - self._prune_floor < _PRUNE_MARGIN:
            return
        self._received = {s for s in self._received if s >= floor}
        self._prune_floor = floor

    def ack_bitmap(self, ack_seq: int) -> int:
        """32-bit receive bitmap for an ACK elicited by ``ack_seq``."""
        return build_bitmap(ack_seq, self._received)

    def has_received(self, seq: int) -> bool:
        return seq in self._received


# -- the sender's outstanding table ------------------------------------------

#: arbitrary 32-bit bitmaps, plus stray bits past the width, which
#: both sides must ignore (the 33rd is what tells a 33-bit window apart)
_BITMAPS = st.one_of(
    st.integers(min_value=0, max_value=(1 << BITMAP_BITS) - 1),
    st.integers(min_value=0, max_value=(1 << (BITMAP_BITS + 8)) - 1),
    st.just((1 << BITMAP_BITS) - 1),
    st.just(1),
    st.just(0),
)

#: what the next ACK's ack_seq is, relative to the table
_ACK_KINDS = ("sent", "duplicate", "stale", "ahead")


@st.composite
def tracker_streams(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=50))):
        kind = draw(st.sampled_from(("send", "send", "burst", "ack", "ack", "ack", "reset")))
        if kind == "send":
            ops.append(("send", draw(st.integers(min_value=1, max_value=3))))
        elif kind == "burst":  # a window's worth in flight at once
            for _ in range(draw(st.integers(min_value=1, max_value=2 * BITMAP_BITS))):
                ops.append(("send", 1))
        elif kind == "ack":
            ops.append(("ack", draw(st.sampled_from(_ACK_KINDS)),
                        draw(st.integers(min_value=0, max_value=40)), draw(_BITMAPS)))
        else:
            ops.append(("reset",))
    return ops


def _ack_seq(kind, offset, last_sent, highest):
    if kind == "duplicate" and highest >= 0:
        return highest
    if kind == "stale":
        return max(highest - 1 - offset, 0)
    if kind == "ahead":
        return last_sent + 1 + offset
    return max(last_sent - offset, 0)


def _assert_same_tracker(tracker, reference):
    assert list(tracker._outstanding.items()) == list(reference._outstanding.items())
    assert tracker.highest_ack_seq == reference.highest_ack_seq
    assert tracker.acks_received == reference.acks_received
    assert tracker.duplicate_acks == reference.duplicate_acks
    assert tracker.outstanding() == sorted(reference._outstanding)


class TestAckTrackerOracle:
    @given(st.integers(min_value=1, max_value=4), tracker_streams())
    @settings(max_examples=100, deadline=None)
    # a window's worth in flight, then a bit just past the bitmap's width
    @example(4, [("send", 1)] * (BITMAP_BITS + 9) + [("ack", "sent", 0, 1 << BITMAP_BITS)])
    def test_one_pass_matches_the_two_loops(self, threshold, ops):
        tracker = AckTracker(threshold)
        reference = TwoLoopAckTracker(threshold)
        last_sent = -1
        for op in ops:
            if op[0] == "send":
                last_sent += op[1]
                tracker.on_data_sent(last_sent)
                reference.on_data_sent(last_sent)
            elif op[0] == "ack":
                _, kind, offset, bitmap = op
                ack_seq = _ack_seq(kind, offset, last_sent, reference.highest_ack_seq)
                got = tracker.on_ack(ack_seq, bitmap)
                want = reference.on_ack(ack_seq, bitmap)
                assert got == want
            else:
                tracker.reset()
                reference.reset()
            _assert_same_tracker(tracker, reference)

    @given(st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_bitmaps_from_a_receive_set(self, threshold, data):
        """The sender's usual input: bitmaps an honest receiver built
        from what it got, with ACKs lost and reordered on the way."""
        tracker = AckTracker(threshold)
        reference = TwoLoopAckTracker(threshold)
        received: set[int] = set()
        acks = []
        for seq in range(data.draw(st.integers(min_value=1, max_value=120))):
            tracker.on_data_sent(seq)
            reference.on_data_sent(seq)
            if data.draw(st.integers(min_value=0, max_value=9)) == 0:
                continue  # the packet is lost
            received.add(seq)
            acks.append((seq, build_bitmap(seq, received)))
            if data.draw(st.booleans()):
                ack = acks.pop(data.draw(st.integers(min_value=0, max_value=len(acks) - 1)))
                assert tracker.on_ack(*ack) == reference.on_ack(*ack)
                _assert_same_tracker(tracker, reference)
        for ack in acks:
            assert tracker.on_ack(*ack) == reference.on_ack(*ack)
            _assert_same_tracker(tracker, reference)


# -- the receiver's receive bitmap --------------------------------------------

_ARRIVAL_KINDS = (
    "next", "next", "next", "gap", "duplicate", "repair", "below_floor", "resync",
)


@st.composite
def arrival_streams(draw):
    ops = []
    if draw(st.booleans()):
        ops.append(("resync", draw(st.integers(min_value=-2, max_value=600))))
    ops.append(("first", draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=600)))))
    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        kind = draw(st.sampled_from(_ARRIVAL_KINDS))
        if kind == "gap":
            ops.append((kind, draw(st.integers(min_value=2, max_value=2 * _PRUNE_MARGIN + 8))))
        elif kind == "resync":
            ops.append((kind, draw(st.integers(min_value=-2, max_value=3 * _PRUNE_MARGIN))))
        else:
            ops.append((kind, draw(st.integers(min_value=0, max_value=4 * _PRUNE_MARGIN))))
    return ops


def _arrival(kind, arg, reference):
    lead = reference.rxw_lead
    if kind == "first":
        return arg
    if kind == "next":
        return lead + 1
    if kind == "gap":
        return lead + arg
    if kind == "duplicate" and reference._received:
        return sorted(reference._received)[arg % len(reference._received)]
    if kind == "below_floor" and reference._prune_floor > 0:
        return arg % reference._prune_floor
    return max(lead - arg % (2 * _PRUNE_MARGIN + 8), 0)  # a repair behind the lead


class TestReceiverControllerOracle:
    @given(arrival_streams())
    @settings(max_examples=80, deadline=None)
    @example([("first", 0)] + [("next", 0)] * (2 * _PRUNE_MARGIN + 1))  # one prune
    @example([("first", 0), ("resync", 10), ("next", 0)])
    def test_receive_bitmap_matches_the_receive_set(self, ops):
        controller = ReceiverController("r")
        reference = SetReceiverController("r")
        for kind, arg in ops:
            if kind == "resync":
                target = reference.rxw_lead + arg
                assert controller.resync(target) == reference.resync(target)
            else:
                seq = _arrival(kind, arg, reference)
                assert controller.on_data(seq, 0.0) == reference.on_data(seq, 0.0)
            assert controller.rxw_lead == reference.rxw_lead
            assert controller.data_packets == reference.data_packets
            assert controller.duplicates == reference.duplicates
            assert controller.loss_filter.value == reference.loss_filter.value
            # the live span past the lead and back beyond the prune floor,
            # and every sequence the reference holds (old repairs included)
            lead = reference.rxw_lead
            for s in range(max(lead - 2 * _PRUNE_MARGIN - 8, 0), lead + BITMAP_BITS):
                assert controller.has_received(s) == reference.has_received(s)
            assert all(controller.has_received(s) for s in reference._received)
            for s in range(max(lead - BITMAP_BITS - 8, 0), lead + 1):
                assert controller.ack_bitmap(s) == build_bitmap(s, reference._received)
        # and, once the stream ends, every sequence there is
        for s in range(reference.rxw_lead + BITMAP_BITS):
            assert controller.has_received(s) == reference.has_received(s)
        for s in range(reference.rxw_lead + 1):
            assert controller.ack_bitmap(s) == build_bitmap(s, reference._received)
