"""Receiver-side congestion-control state (§3.2, §3.3).

Each receiver keeps a constant amount of state: the low-pass loss
filter, the highest sequence number seen (``rxw_lead``) and a receive
bitmap in the ACK bitmap's layout, anchored at the lead.  This module
owns the *measurement* logic only; NAK scheduling/suppression policy
lives with the PGM receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .acktrack import BITMAP_BITS
from .loss_filter import DEFAULT_W, LossRateFilter
from .reports import ReceiverReport

#: Prune the receive bitmap this far behind the lead; well beyond both
#: the ACK bitmap width and any plausible reordering in our topologies.
_PRUNE_MARGIN = 4 * BITMAP_BITS
_ACK_MASK = (1 << BITMAP_BITS) - 1


@dataclass(frozen=True)
class DataOutcome:
    """Result of ingesting one data packet at the receiver.

    Immutable: the outcomes that carry no gaps are shared between
    calls (and between receivers), so the per-packet path allocates
    nothing.
    """

    #: Sequence numbers newly detected missing (gaps opened by this packet).
    new_gaps: tuple[int, ...] = ()
    #: True if the packet was already received (duplicate/late repair).
    duplicate: bool = False
    #: True if the packet advanced rxw_lead.
    advanced_lead: bool = False


_DUPLICATE = DataOutcome(duplicate=True)
_ADVANCED = DataOutcome(advanced_lead=True)
#: an unseen packet behind the lead: a repair filling an old gap
_FILLED = DataOutcome()


class ReceiverController:
    """Loss measurement + receive bookkeeping for one receiver.

    Args:
        rx_id: this receiver's identity, stamped into reports.
        filter_w: fixed-point smoothing constant for the loss filter.
        estimator: "filter" for the paper's low-pass filter (§3.2.2)
            or "tfrc" for the TFRC average-loss-interval method the
            paper lists as future work (§5).
    """

    def __init__(self, rx_id: str, filter_w: int = DEFAULT_W, estimator: str = "filter"):
        self.rx_id = rx_id
        if estimator == "filter":
            self.loss_filter = LossRateFilter(filter_w)
        elif estimator == "tfrc":
            from .tfrc_loss import LossIntervalEstimator

            self.loss_filter = LossIntervalEstimator()
        else:
            raise ValueError(f"unknown loss estimator {estimator!r}")
        self.rxw_lead: int = -1
        #: bit k set iff sequence ``rxw_lead - k`` was received
        self._received_bits = 0
        self._prune_floor = 0
        self.data_packets = 0
        self.duplicates = 0
        #: timestamp of the most recent sender timestamp observed, and
        #: local receive time, for the time-RTT ablation echo.
        self._last_tstamp: Optional[float] = None
        self._last_tstamp_rx_time: Optional[float] = None
        #: optional hook receiving each (seq, lost) filter sample, used
        #: by the Fig. 2 experiment to capture the raw loss signal.
        self.sample_observer: Optional[callable] = None

    # -- data path ---------------------------------------------------------

    def on_data(self, seq: int, now: float, sender_timestamp: Optional[float] = None) -> DataOutcome:
        """Ingest a data packet (ODATA or RDATA) with sequence ``seq``.

        Gap slots between the old and new lead are fed to the loss
        filter as losses; the arriving packet as a success.  Repairs
        and duplicates (``seq <= lead`` already seen) do not touch the
        filter: the loss signal measures the *original* transmission
        pattern.
        """
        if sender_timestamp is not None:
            self._last_tstamp = sender_timestamp
            self._last_tstamp_rx_time = now
        lead = self.rxw_lead
        if seq <= lead and self._received_bits >> (lead - seq) & 1:
            self.duplicates += 1
            return _DUPLICATE

        self.data_packets += 1
        if seq <= lead:
            # unseen and behind the lead: the slot was already counted
            # as lost when the gap opened
            self._received_bits |= 1 << (lead - seq)
            return _FILLED
        self._received_bits = self._received_bits << (seq - lead) | 1
        outcome = _ADVANCED
        observer = self.sample_observer
        # The first packet ever seen (lead < 0) anchors the receive
        # window: a receiver joining mid-session must not treat the
        # whole prior history as lost (PGM semantics — earlier data is
        # simply outside its window).
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
        """Jump the receive window forward to ``new_lead`` (rejoin at
        the live edge after a partition outlived the sender's repair
        horizon).  The skipped span is *not* fed to the loss filter —
        like the first-packet anchor above, data the session can no
        longer repair is outside the window, not congestion signal —
        so the post-heal loss report reflects current path state, not
        the outage.  Returns the number of sequences skipped over."""
        if new_lead <= self.rxw_lead:
            return 0
        old_lead = self.rxw_lead
        self._received_bits <<= new_lead - old_lead
        self.rxw_lead = new_lead
        self._maybe_prune()
        # every received sequence is <= old_lead: the skipped span holds none
        return new_lead - old_lead - 1 if old_lead >= 0 else 0

    def _maybe_prune(self) -> None:
        floor = self.rxw_lead - _PRUNE_MARGIN
        if floor - self._prune_floor < _PRUNE_MARGIN:
            return
        self._received_bits &= (1 << (self.rxw_lead - floor + 1)) - 1
        self._prune_floor = floor

    # -- report / ACK construction ---------------------------------------------

    def report(self, include_timestamp: bool = False, now: Optional[float] = None) -> ReceiverReport:
        """Build the receiver report carried on NAKs and ACKs."""
        echo = None
        if include_timestamp and self._last_tstamp is not None and now is not None:
            # Correct the echoed timestamp by the local hold time so
            # feedback delays do not inflate the RTT (§3.2.1).
            hold = now - (self._last_tstamp_rx_time or now)
            echo = self._last_tstamp + hold
        return ReceiverReport(
            rx_id=self.rx_id,
            rxw_lead=max(self.rxw_lead, 0),
            rx_loss=self.loss_filter.value,
            timestamp_echo=echo,
        )

    def ack_bitmap(self, ack_seq: int) -> int:
        """32-bit receive bitmap for an ACK elicited by ``ack_seq``, a
        received sequence and so at or behind ``rxw_lead``."""
        return self._received_bits >> (self.rxw_lead - ack_seq) & _ACK_MASK

    def has_received(self, seq: int) -> bool:
        return seq <= self.rxw_lead and bool(self._received_bits >> (self.rxw_lead - seq) & 1)

    @property
    def loss_rate(self) -> float:
        return self.loss_filter.loss_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReceiverController {self.rx_id} lead={self.rxw_lead} "
            f"loss={self.loss_rate:.4f}>"
        )
