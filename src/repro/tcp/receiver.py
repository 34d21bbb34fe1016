"""TCP receiver: cumulative ACKs with optional delayed ACKs.

Out-of-order segments are buffered and acknowledged immediately with a
duplicate ACK (what triggers the sender's fast retransmit).  The paper
notes pgmcc has no delayed ACKs while TCP usually does; both receiver
behaviours are supported so the inter-protocol fairness experiments
can cover the difference.
"""

from __future__ import annotations

from ..simulator.engine import Timer
from ..simulator.node import Host
from ..simulator.packet import Packet
from .packets import PROTO, TcpAck, TcpSegment

#: delayed-ACK timer (RFC 1122 allows up to 500 ms; BSD used 200 ms)
DELACK_TIMEOUT = 0.2


class TcpReceiver:
    """One bulk TCP flow's receiving side."""

    def __init__(self, host: Host, src: str, flow_id: int, delayed_acks: bool = False):
        self.host = host
        self.sim = host.sim
        self.src = src
        self.flow_id = flow_id
        self.delayed_acks = delayed_acks
        self.rcv_nxt = 0
        self._out_of_order: set[int] = set()
        self._delack_pending = False
        self._delack_timer = Timer(self.sim, self._delack_fire)
        self.segments_received = 0
        self.duplicates = 0
        self.acks_sent = 0

    def on_segment(self, segment: TcpSegment) -> None:
        self.segments_received += 1
        if segment.seq < self.rcv_nxt or segment.seq in self._out_of_order:
            self.duplicates += 1
            self._send_ack()  # duplicate data still elicits an ACK
            return
        if segment.seq == self.rcv_nxt:
            self.rcv_nxt += 1
            while self.rcv_nxt in self._out_of_order:
                self._out_of_order.discard(self.rcv_nxt)
                self.rcv_nxt += 1
            if self.delayed_acks:
                self._maybe_delay_ack()
            else:
                self._send_ack()
        else:
            # A gap: buffer and send an immediate duplicate ACK.
            self._out_of_order.add(segment.seq)
            self._send_ack()

    def _maybe_delay_ack(self) -> None:
        if self._delack_pending:
            # Second full segment: ACK now (RFC 1122 "at least every
            # second segment").
            self._delack_timer.cancel()
            self._delack_pending = False
            self._send_ack()
        else:
            self._delack_pending = True
            self._delack_timer.restart(DELACK_TIMEOUT)

    def _delack_fire(self) -> None:
        self._delack_pending = False
        self._send_ack()

    def _send_ack(self) -> None:
        ack = TcpAck(self.flow_id, self.rcv_nxt)
        self.host.send(Packet(self.host.name, self.src, ack.wire_size(), ack, PROTO))
        self.acks_sent += 1

    def close(self) -> None:
        self._delack_timer.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TcpReceiver flow={self.flow_id} rcv_nxt={self.rcv_nxt}>"
