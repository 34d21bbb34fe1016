"""The window/token controller (§3.4).

The sender keeps two variables: a window ``W`` and a token count ``T``,
both starting at 1.  ``W`` only determines how fast the window opens
(it is an *estimate* of packets in flight, realigned on losses); ``T``
gates transmissions — one token per data packet, regenerated by ACKs.

Update rules, verbatim from the paper:

* on session (re)start: ``W = 1; T = 1``
* on transmit:          ``T = T - 1``
* on ACK:               ``W = W + 1/W; T = T + 1 + 1/W``
* on loss detection:    ``W = W/2``, ignore next ``W/2`` ACKs

plus: exponential window opening up to a small fixed slow-start
threshold (6 packets) to get past the dupack threshold quickly; ``W``
realigned to the true number of packets in flight before halving; and
no reaction to further congestion events for one RTT (implemented by
recording the most recently transmitted sequence number).

:class:`WindowController` is also the ``pgmcc`` backend of the
:mod:`repro.core.controller` contract: its events are the contract's
``on_send`` / ``on_ack`` / ``on_congestion`` / ``on_timeout``, and the
other window backends (``jain``, ``aimd``) are subclasses that
override ``on_congestion``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .reports import ReceiverReport

#: Fixed slow-start threshold (§3.4): exponential opening up to 6 packets.
DEFAULT_SSTHRESH = 6
#: Loss is declared after this many subsequent ACKs miss a packet (§3.4).
DEFAULT_DUPACK_THRESHOLD = 3


class WindowController:
    """pgmcc's TCP-like AIMD controller run against the acker.

    The controller is a pure state machine: the surrounding sender
    feeds it send/ACK/loss/timeout events and asks :meth:`send_delay`.
    ``send_delay`` is binary for a window backend: either a token is
    available now, or the ACK clock must reopen the window (``None`` --
    there is no time at which sending becomes legal without feedback).
    """

    name = "pgmcc"
    kind = "window"
    #: which signals this backend reduces its output on; the
    #: conformance suite checks each declared signal.
    congestion_signals: tuple[str, ...] = ("dupack", "timeout")

    def __init__(
        self,
        ssthresh: int = DEFAULT_SSTHRESH,
        max_tokens: Optional[float] = None,
        adaptive_ssthresh: bool = False,
    ):
        if ssthresh < 1:
            raise ValueError("ssthresh must be >= 1")
        #: §3.4 future work: let the slow-start threshold adapt (TCP
        #: style: start effectively unlimited, then track half the
        #: window at each congestion event — "possibly let it grow much
        #: higher than our value").  The adaptive value survives stall
        #: restarts, exactly like TCP's.
        self.adaptive_ssthresh = adaptive_ssthresh
        self.ssthresh = float(1 << 20) if adaptive_ssthresh else float(ssthresh)
        #: Optional cap on accumulated tokens for app-limited senders
        #: (None = uncapped, the bulk-transfer case).
        self.max_tokens = max_tokens
        self.w = 1.0
        self.tokens = 1.0
        #: ACKs still to be ignored after a window halving.
        self.ignore_acks = 0
        #: Sequence number recorded at the last congestion reaction;
        #: losses at or below it are part of the same event (one
        #: reaction per RTT).
        self.recovery_seq: Optional[int] = None
        # Counters for analysis.
        self.acks_processed = 0
        self.losses_reacted = 0
        self.losses_ignored = 0
        self.restarts = 0

    # -- events ------------------------------------------------------------

    def on_timeout(self, now: float) -> None:
        """Restart after a stall: ``W = T = 1``."""
        self.w = 1.0
        self.tokens = 1.0
        self.ignore_acks = 0
        self.recovery_seq = None
        # adaptive ssthresh deliberately survives the restart (§3.4)
        self.restarts += 1

    def on_send(self, seq: int, now: float) -> None:
        """Consume one token for a data packet."""
        if self.tokens < 1.0:
            raise RuntimeError(f"transmit without a token (T={self.tokens:.3f})")
        self.tokens -= 1.0

    @property
    def can_send(self) -> bool:
        return self.tokens >= 1.0

    def send_delay(self, now: float) -> Optional[float]:
        return 0.0 if self.can_send else None

    def on_ack(self, now: float, in_flight: Optional[int] = None) -> None:
        """Process one acceptable ACK (a new highest ``ack_seq``)."""
        self.acks_processed += 1
        if self.ignore_acks > 0:
            # Post-halving deflation: these ACKs regenerate no tokens
            # and do not grow the window, so the packets in flight
            # drain down to the new window.
            self.ignore_acks -= 1
            return
        if self.w < self.ssthresh:
            # Exponential opening up to the fixed threshold (§3.4),
            # to quickly exceed the dupack threshold.
            self.w += 1.0
        else:
            self.w += 1.0 / self.w
        self.tokens += 1.0 + 1.0 / self.w
        if self.max_tokens is not None and self.tokens > self.max_tokens:
            self.tokens = self.max_tokens

    def on_congestion(
        self,
        loss_seq: int,
        last_tx_seq: int,
        in_flight: Optional[int],
        now: float,
    ) -> bool:
        """React to a detected loss.

        Args:
            loss_seq: sequence number declared lost.
            last_tx_seq: most recent sequence number transmitted
                (recorded so further losses within one RTT are folded
                into this reaction).
            in_flight: actual packets in flight derived from the ACK's
                ``rxw_lead`` (``last_tx_seq - rxw_lead``); used to
                realign ``W`` before halving so estimation errors do
                not accumulate (§3.4).
            now: simulated time (unused by the window rules).

        Returns:
            True if the controller reacted, False if the loss fell
            inside the current recovery window and was ignored.
        """
        if self.recovery_seq is not None and loss_seq <= self.recovery_seq:
            self.losses_ignored += 1
            return False
        self.losses_reacted += 1
        if in_flight is not None and in_flight >= 1:
            self.w = min(self.w, float(in_flight))
        self.w = max(1.0, self.w / 2.0)
        if self.adaptive_ssthresh:
            # TCP-style: remember half the window so a post-stall
            # restart can open exponentially back up to it.
            self.ssthresh = max(2.0, self.w)
        self.ignore_acks = int(self.w)
        self.recovery_seq = last_tx_seq
        return True

    def observe_report(self, report: "ReceiverReport",
                       srtt: Optional[float], now: float) -> None:
        pass  # window backends are clocked purely by ACK arrivals

    def kick(self, clear_ignore: bool = False) -> None:
        """Restart a dead ACK clock: make one send possible now."""
        self.tokens = max(self.tokens, 1.0)
        if clear_ignore:
            self.ignore_acks = 0

    def state_summary(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "w": self.w,
            "tokens": self.tokens,
            "ignore_acks": self.ignore_acks,
            "recovery_seq": self.recovery_seq,
            "acks_processed": self.acks_processed,
            "losses_reacted": self.losses_reacted,
            "losses_ignored": self.losses_ignored,
            "restarts": self.restarts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WindowController W={self.w:.2f} T={self.tokens:.2f} ign={self.ignore_acks}>"
