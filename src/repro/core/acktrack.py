"""Sender-side ACK accounting and loss detection (§3.3, §3.4).

pgmcc cannot use TCP's cumulative ACKs: repairs may arrive long after
the loss, and acker switches create multipath-like reordering.  Each
ACK therefore carries ``ack_seq`` (the data packet that elicited it)
plus a 32-bit bitmap over the most recent 32 packets, so every ACK is
effectively transmitted multiple times.

The tracker keeps the outstanding (sent, not yet acknowledged) ODATA
sequence numbers in send order and walks them, per ACK, from the front
up to ``ack_seq`` — the acked packet plus any holes, not the window:

1. a packet the bitmap reports received is newly acknowledged — one
   ACK event for the window controller, keeping the token supply equal
   to the delivered packet count (the bitmap recovers lost ACKs);
2. an older one it does not report, covered or not, counts one more
   "subsequent ACK that missed it"; at the dupack threshold (3) the
   packet is declared lost.

Retransmissions (RDATA) are never ACKed and never tracked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .window import DEFAULT_DUPACK_THRESHOLD

#: Width of the ACK bitmap (Fig. 1).
BITMAP_BITS = 32


def build_bitmap(ack_seq: int, received: "set[int] | dict") -> int:
    """Build the 32-bit receive bitmap for an ACK.

    Bit k set means sequence ``ack_seq - k`` was received; bit 0 is
    ``ack_seq`` itself (always set: the ACK is elicited by receiving
    it).  Used by the receiver side; lives here so sender and receiver
    agree on one layout.
    """
    bitmap = 0
    for k in range(BITMAP_BITS):
        seq = ack_seq - k
        if seq < 0:
            break
        if seq in received:
            bitmap |= 1 << k
    return bitmap


def bitmap_covers(ack_seq: int, seq: int) -> bool:
    """Whether ``seq`` falls inside the bitmap window of ``ack_seq``."""
    return 0 <= ack_seq - seq < BITMAP_BITS


def bitmap_contains(ack_seq: int, bitmap: int, seq: int) -> bool:
    """Whether the bitmap reports ``seq`` as received."""
    offset = ack_seq - seq
    if not 0 <= offset < BITMAP_BITS:
        return False
    return bool(bitmap & (1 << offset))


@dataclass
class AckOutcome:
    """Result of processing one ACK."""

    newly_acked: list[int] = field(default_factory=list)
    losses: list[int] = field(default_factory=list)
    is_new_high: bool = False


class AckTracker:
    """Outstanding-packet table with bitmap-based loss detection."""

    def __init__(self, dupack_threshold: int = DEFAULT_DUPACK_THRESHOLD):
        if dupack_threshold < 1:
            raise ValueError("dupack_threshold must be >= 1")
        self.dupack_threshold = dupack_threshold
        #: outstanding seq -> count of subsequent ACKs that missed it, in send order
        self._outstanding: dict[int, int] = {}
        self._last_sent = -1
        self.highest_ack_seq: int = -1
        self.acks_received = 0
        self.duplicate_acks = 0

    # -- sender events -------------------------------------------------------

    def on_data_sent(self, seq: int) -> None:
        """Record an original ODATA transmission, in ascending order."""
        if seq <= self._last_sent:
            raise ValueError(f"sequence {seq} sent after {self._last_sent}")
        self._last_sent = seq
        self._outstanding[seq] = 0

    def reset(self) -> None:
        """Forget everything (stall restart)."""
        self._outstanding.clear()
        self._last_sent = -1
        self.highest_ack_seq = -1

    # -- ACK processing --------------------------------------------------------

    def on_ack(self, ack_seq: int, bitmap: int) -> AckOutcome:
        """Digest one ACK; returns newly acked packets and declared losses."""
        self.acks_received += 1
        outcome = AckOutcome()
        outcome.is_new_high = ack_seq > self.highest_ack_seq
        if not outcome.is_new_high:
            self.duplicate_acks += 1
        self.highest_ack_seq = max(self.highest_ack_seq, ack_seq)

        table = self._outstanding
        for seq, misses in table.items():
            if seq > ack_seq:
                break
            if ack_seq - seq < BITMAP_BITS and bitmap >> (ack_seq - seq) & 1:
                outcome.newly_acked.append(seq)
            elif seq < ack_seq:
                if misses + 1 >= self.dupack_threshold:
                    outcome.losses.append(seq)
                else:
                    table[seq] = misses + 1
        for seq in outcome.newly_acked + outcome.losses:
            del table[seq]
        return outcome

    # -- introspection -----------------------------------------------------

    @property
    def outstanding_count(self) -> int:
        return len(self._outstanding)

    def outstanding(self) -> list[int]:
        return sorted(self._outstanding)

    def is_outstanding(self, seq: int) -> bool:
        return seq in self._outstanding

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AckTracker outstanding={len(self._outstanding)} "
            f"high={self.highest_ack_seq}>"
        )
