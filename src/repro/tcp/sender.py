"""TCP Reno/NewReno sender.

This is the baseline the paper competes pgmcc against: slow start,
congestion avoidance, fast retransmit/fast recovery with NewReno
partial-ACK handling (the behaviour of the late-1990s BSD stacks the
testbed ran), and an RFC 6298-style retransmission timer with Karn's
algorithm and exponential backoff.

The sender is bulk-mode: it always has data, like the paper's TCP
flows.  ``cwnd`` is in segments.
"""

from __future__ import annotations

from typing import Optional

from ..simulator.engine import Timer
from ..simulator.node import Host
from ..simulator.packet import Packet
from ..simulator.trace import FlowTrace
from .packets import DEFAULT_PAYLOAD, PROTO, TcpAck, TcpSegment

#: minimum retransmission timeout (seconds)
MIN_RTO = 0.5
MAX_RTO = 16.0
#: initial slow-start threshold (segments) — effectively "infinite"
INITIAL_SSTHRESH = 1 << 20
DUPACK_THRESHOLD = 3


class TcpSender:
    """One bulk TCP flow's sending side."""

    def __init__(
        self,
        host: Host,
        dst: str,
        flow_id: int,
        max_segments: Optional[int] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.dst = dst
        self.flow_id = flow_id
        self.payload_size = DEFAULT_PAYLOAD
        self.trace = FlowTrace()
        #: stop after this many segments are acked (None = run forever)
        self.max_segments = max_segments

        # congestion state
        self.cwnd = 1.0
        self.ssthresh = float(INITIAL_SSTHRESH)
        self.snd_una = 0  # oldest unacknowledged segment
        self.snd_nxt = 0  # next segment to send
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_point = 0

        # RTT estimation (Karn: only time never-retransmitted segments)
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = 1.0
        self._backoff = 1.0
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0
        self._retransmitted: set[int] = set()

        self._rto_timer = Timer(self.sim, self._on_rto)
        self._running = False
        self._closed = False
        # statistics
        self.segments_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            raise RuntimeError("sender already started")
        self._running = True
        self._try_send()

    def close(self) -> None:
        self._closed = True
        self._rto_timer.cancel()

    @property
    def done(self) -> bool:
        return self.max_segments is not None and self.snd_una >= self.max_segments

    # -- transmit path --------------------------------------------------------

    def _flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    def _try_send(self) -> None:
        if not self._running or self._closed or self.done:
            return
        limit = self.max_segments if self.max_segments is not None else None
        while self._flight_size() < int(self.cwnd):
            if limit is not None and self.snd_nxt >= limit:
                break
            self._transmit(self.snd_nxt)
            self.snd_nxt += 1

    def _transmit(self, seq: int, is_retransmission: bool = False) -> None:
        segment = TcpSegment(self.flow_id, seq, self.payload_size)
        self.host.send(
            Packet(self.host.name, self.dst, segment.wire_size(), segment, PROTO)
        )
        self.segments_sent += 1
        if is_retransmission:
            self.retransmissions += 1
            self._retransmitted.add(seq)
            self.trace.log(self.sim.now, "rdata", seq, self.payload_size)
        else:
            self.trace.log(self.sim.now, "data", seq, self.payload_size)
            if self._timed_seq is None and seq not in self._retransmitted:
                self._timed_seq = seq
                self._timed_at = self.sim.now
        if not self._rto_timer.armed:
            self._rto_timer.start(self._rto * self._backoff)

    # -- ACK processing --------------------------------------------------------

    def on_ack(self, ack: TcpAck) -> None:
        if self._closed:
            return
        self.trace.log(self.sim.now, "ack", ack.ackno)
        if ack.ackno > self.snd_una:
            self._on_new_ack(ack.ackno)
        elif ack.ackno == self.snd_una and self._flight_size() > 0:
            self._on_dupack()
        self._try_send()

    def _on_new_ack(self, ackno: int) -> None:
        newly_acked = ackno - self.snd_una
        self.snd_una = ackno
        self._sample_rtt(ackno)
        self._backoff = 1.0
        self._rto_timer.cancel()
        if self._flight_size() > 0:
            self._rto_timer.start(self._rto)

        if self.in_recovery:
            if ackno >= self.recovery_point:
                # Full ACK: leave fast recovery (NewReno).
                self.in_recovery = False
                self.cwnd = self.ssthresh
                self.dupacks = 0
            else:
                # Partial ACK: retransmit the next hole, deflate cwnd.
                self._transmit(self.snd_una, is_retransmission=True)
                self.cwnd = max(1.0, self.cwnd - newly_acked + 1)
            return

        self.dupacks = 0
        if self.cwnd < self.ssthresh:
            # Slow start with Appropriate Byte Counting (RFC 3465,
            # L=2): a cumulative ACK covering many segments — e.g.
            # after an RTO recovery — must not inflate cwnd by the
            # whole jump at once.
            self.cwnd += min(newly_acked, 2)
        else:
            self.cwnd += newly_acked / self.cwnd  # congestion avoidance

    def _on_dupack(self) -> None:
        self.dupacks += 1
        if self.in_recovery:
            # Window inflation keeps the pipe full during recovery.
            self.cwnd += 1.0
            return
        if self.dupacks >= DUPACK_THRESHOLD:
            self.fast_retransmits += 1
            self.ssthresh = max(self._flight_size() / 2.0, 2.0)
            self.in_recovery = True
            self.recovery_point = self.snd_nxt
            self._transmit(self.snd_una, is_retransmission=True)
            self.cwnd = self.ssthresh + DUPACK_THRESHOLD
            self.trace.log(self.sim.now, "cc-loss", self.snd_una)

    # -- RTT estimation ---------------------------------------------------------

    def _sample_rtt(self, ackno: int) -> None:
        if self._timed_seq is None or ackno <= self._timed_seq:
            return
        if self._timed_seq in self._retransmitted:
            self._timed_seq = None
            return
        sample = self.sim.now - self._timed_at
        self._timed_seq = None
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar += 0.25 * (abs(sample - self._srtt) - self._rttvar)
            self._srtt += 0.125 * (sample - self._srtt)
        self._rto = min(MAX_RTO, max(MIN_RTO, self._srtt + 4.0 * self._rttvar))

    @property
    def srtt(self) -> Optional[float]:
        return self._srtt

    # -- timeout ---------------------------------------------------------------

    def _on_rto(self) -> None:
        if self._closed or self._flight_size() == 0 or self.done:
            return
        self.timeouts += 1
        self.trace.log(self.sim.now, "timeout", self.snd_una)
        self.ssthresh = max(self._flight_size() / 2.0, 2.0)
        self.cwnd = 1.0
        self.in_recovery = False
        self.dupacks = 0
        self.snd_nxt = self.snd_una  # go-back-N
        self._backoff = min(self._backoff * 2.0, 64.0)
        self._timed_seq = None
        self._transmit(self.snd_nxt, is_retransmission=True)
        self.snd_nxt += 1
        self._rto_timer.restart(self._rto * self._backoff)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpSender flow={self.flow_id} cwnd={self.cwnd:.1f} "
            f"una={self.snd_una} nxt={self.snd_nxt}>"
        )
