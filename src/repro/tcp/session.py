"""TCP flow wiring.

Hosts demultiplex TCP traffic by flow id, so several flows can share a
host (Fig. 6 runs two TCP connections through one bottleneck).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..simulator.node import Host
from ..simulator.packet import Packet
from ..simulator.topology import Network
from ..simulator.trace import FlowTrace
from .packets import PROTO, TcpAck, TcpSegment
from .receiver import TcpReceiver
from .sender import TcpSender


class TcpHostAgent:
    """Per-host TCP demultiplexer: routes segments/ACKs by flow id."""

    def __init__(self, host: Host):
        self.host = host
        self._senders: dict[int, TcpSender] = {}
        self._receivers: dict[int, TcpReceiver] = {}
        host.register_agent(PROTO, self)

    @classmethod
    def on(cls, host: Host) -> "TcpHostAgent":
        """Get or create the demux agent for ``host``."""
        agent = host._agents.get(PROTO)  # noqa: SLF001 - deliberate peek
        if isinstance(agent, cls):
            return agent
        if agent is not None:
            raise RuntimeError(f"{host.name} already has a non-TCP agent for {PROTO!r}")
        return cls(host)

    def register_sender(self, sender: TcpSender) -> None:
        self._senders[sender.flow_id] = sender

    def register_receiver(self, receiver: TcpReceiver) -> None:
        self._receivers[receiver.flow_id] = receiver

    def handle_packet(self, packet: Packet) -> None:
        msg = packet.payload
        if isinstance(msg, TcpSegment):
            receiver = self._receivers.get(msg.flow_id)
            if receiver is not None:
                receiver.on_segment(msg)
        elif isinstance(msg, TcpAck):
            sender = self._senders.get(msg.flow_id)
            if sender is not None:
                sender.on_ack(msg)


@dataclass
class TcpFlow:
    """Handles for one wired-up TCP connection."""

    sender: TcpSender
    receiver: TcpReceiver
    flow_id: int

    @property
    def trace(self) -> FlowTrace:
        return self.sender.trace

    def throughput_bps(self, t0: float, t1: float) -> float:
        """Goodput over [t0, t1): first-transmission payload bits/s."""
        return self.trace.throughput_bps(t0, t1)

    def close(self) -> None:
        self.sender.close()
        self.receiver.close()


def create_tcp_flow(
    net: Network,
    src_host: str,
    dst_host: str,
    start_at: float = 0.0,
    stop_at: Optional[float] = None,
    delayed_acks: bool = False,
    max_segments: Optional[int] = None,
) -> TcpFlow:
    """Create and schedule one bulk TCP connection on ``net``.

    Hosts with no unicast route to each other, in either direction
    (e.g. one wired after the last ``build_routes()``), raise
    ``routing.NoPath`` here rather than losing every segment or ACK.
    """
    net.require_route(src_host, dst_host)
    net.require_route(dst_host, src_host)
    flow_id = net.next_flow_id()
    sender = TcpSender(
        net.host(src_host),
        dst_host,
        flow_id,
        max_segments=max_segments,
    )
    receiver = TcpReceiver(net.host(dst_host), src_host, flow_id, delayed_acks)
    TcpHostAgent.on(net.host(src_host)).register_sender(sender)
    TcpHostAgent.on(net.host(dst_host)).register_receiver(receiver)
    if start_at <= 0:
        net.sim.schedule(0.0, sender.start)
    else:
        net.sim.schedule_at(start_at, sender.start)
    if stop_at is not None:
        net.sim.schedule_at(stop_at, sender.close)
    return TcpFlow(sender, receiver, flow_id)
