"""Hosts and routers.

A :class:`Node` owns outgoing :class:`~repro.simulator.link.Link`
objects keyed by neighbour name.  :class:`Host` nodes terminate
traffic and run protocol agents; :class:`Router` nodes forward using
the unicast/multicast tables installed by
:class:`~repro.simulator.topology.Network`.

PGM network elements hook into routers through the
:class:`PacketInterceptor` interface, so the plain forwarding plane
stays protocol-agnostic (the paper's incremental-deployment property:
everything must also work through routers with no PGM support).
"""

from __future__ import annotations

from typing import Container, Optional, Protocol

from .engine import Simulator
from .link import Link
from .packet import Address, Packet, is_multicast


class PacketInterceptor(Protocol):
    """Router-resident protocol logic (e.g. a PGM network element).

    ``intercept`` returns True when it consumed the packet (possibly
    re-emitting others); False lets the router forward it normally.
    """

    def intercept(self, packet: Packet, from_node: str) -> bool:  # pragma: no cover
        ...


class Agent(Protocol):
    """A protocol endpoint living on a host."""

    def handle_packet(self, packet: Packet) -> None:  # pragma: no cover
        ...


class Node:
    """Base class holding links and forwarding state."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: outgoing links keyed by neighbour node name
        self.links: dict[str, Link] = {}
        #: unicast forwarding: destination -> next-hop neighbour; a
        #: pruned node's names its own subtree only (shared when empty)
        self.unicast_routes: dict[Address, str] = {}
        #: a pruned node's parent, the next hop to every name in
        #: ``uplink_reach`` that ``unicast_routes`` does not hold
        self.uplink: Optional[str] = None
        self.uplink_reach: Container[Address] = ()
        #: multicast forwarding: group -> set of downstream neighbours
        self.multicast_routes: dict[Address, tuple[str, ...]] = {}
        self.packets_forwarded = 0
        self.packets_dropped_no_route = 0
        #: loop-guard ceiling on ``packet.hops``; rescaled to the
        #: network size when routes are built (see Router.receive)
        self.hop_limit = Packet.MAX_HOPS
        # Fault-injection state: ``faulted`` is the single hot-path
        # flag derived from alive/paused (see pause/resume/crash).
        self.alive = True
        self.paused = False
        self.faulted = False
        self.fault_drops = 0

    # -- fault hooks -----------------------------------------------------

    def pause(self) -> None:
        """Freeze the node's data plane: incoming and originated
        packets are dropped until :meth:`resume`.  Protocol timers keep
        firing (a frozen process does not stop the simulator clock) but
        their transmissions are swallowed."""
        self.paused = True
        self.faulted = True

    def resume(self) -> None:
        """Undo :meth:`pause` (a crashed node stays down)."""
        self.paused = False
        self.faulted = not self.alive

    def crash(self) -> None:
        """Permanently kill the node.  The data plane is gated exactly
        like :meth:`pause`; subclasses additionally tear down any
        protocol agents so their timers go quiet."""
        self.alive = False
        self.faulted = True

    def attach_link(self, neighbor: str, link: Link) -> None:
        """Register the outgoing link towards ``neighbor``."""
        if neighbor in self.links:
            raise ValueError(f"{self.name}: duplicate link to {neighbor}")
        self.links[neighbor] = link

    def receive(self, packet: Packet, from_node: str) -> None:
        raise NotImplementedError

    # -- transmission helpers -------------------------------------------

    def send_via(self, neighbor: str, packet: Packet) -> bool:
        """Transmit on the link to ``neighbor``; False if dropped or
        missing (a missing link counts as a drop)."""
        link = self.links.get(neighbor)
        if link is None:
            self.packets_dropped_no_route += 1
            return False
        return link.send(packet)

    def unicast_next_hop(self, dst: Address) -> Optional[str]:
        if dst == self.name:
            return None
        nh = self.unicast_routes.get(dst)
        if nh is None and dst in self.uplink_reach:
            return self.uplink
        return nh

    # The two forwarders look the link up and send on it themselves,
    # as ``send_via`` does, one frame fewer per hop.

    def forward_unicast(self, packet: Packet) -> bool:
        """Send towards ``packet.dst``; no route to this node itself."""
        dst = packet.dst
        nh = self.unicast_routes.get(dst)
        if nh is None and dst in self.uplink_reach:
            nh = self.uplink
        link = self.links.get(nh) if dst != self.name else None
        if link is None:
            self.packets_dropped_no_route += 1
            return False
        return link.send(packet)

    def forward_multicast(self, packet: Packet, from_node: Optional[str]) -> int:
        """Replicate ``packet`` to every downstream branch of its group.

        Returns the number of copies transmitted.  The arrival branch is
        excluded (split-horizon) so the tree stays loop-free.  Every
        branch gets the one packet instance.
        """
        branches = self.multicast_routes.get(packet.dst, ())
        links = self.links
        copies = 0
        for neighbor in branches:
            if neighbor == from_node:
                continue
            link = links.get(neighbor)
            if link is None:
                self.packets_dropped_no_route += 1
            elif link.send(packet):
                copies += 1
        return copies


class Host(Node):
    """An end host: terminates unicast traffic, joins multicast groups,
    and dispatches packets to protocol agents by ``packet.proto``."""

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.groups: set[Address] = set()
        self._agents: dict[str, Agent] = {}
        self.packets_received = 0

    def join_group(self, group: Address) -> None:
        if not is_multicast(group):
            raise ValueError(f"{group} is not a multicast address")
        self.groups.add(group)

    def leave_group(self, group: Address) -> None:
        self.groups.discard(group)

    def register_agent(self, proto: str, agent: Agent) -> None:
        if proto in self._agents:
            raise ValueError(f"{self.name}: agent for {proto!r} already registered")
        self._agents[proto] = agent

    def unregister_agent(self, proto: str) -> None:
        self._agents.pop(proto, None)

    # -- data path -------------------------------------------------------

    def receive(self, packet: Packet, from_node: str) -> None:
        if self.faulted:
            self.fault_drops += 1
            return
        dst = packet.dst
        # groups only ever holds multicast addresses, so the plain
        # membership test covers the is_multicast check too.
        if dst != self.name and dst not in self.groups:
            # Hosts are not transit nodes; stray packets are dropped.
            self.packets_dropped_no_route += 1
            return
        self.packets_received += 1
        agent = self._agents.get(packet.proto)
        if agent is not None:
            agent.handle_packet(packet)

    def send(self, packet: Packet) -> bool:
        """Originate a packet: stamp creation time and route it out."""
        if self.faulted:
            self.fault_drops += 1
            return False
        packet.created_at = self.sim.now
        if is_multicast(packet.dst):
            return self.forward_multicast(packet, from_node=None) > 0
        return self.forward_unicast(packet)

    def crash(self) -> None:
        """Kill the host: gate the data plane and tear down agents so
        their timers (NAK backoffs, heartbeats) go quiet."""
        super().crash()
        for agent in list(self._agents.values()):
            close = getattr(agent, "close", None)
            if close is not None:
                close()
        self._agents.clear()


class Router(Node):
    """A transit node.  Optionally hosts a protocol interceptor
    (our PGM network element) that sees packets before forwarding."""

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.interceptor: Optional[PacketInterceptor] = None

    def set_interceptor(self, interceptor: PacketInterceptor) -> None:
        self.interceptor = interceptor

    def receive(self, packet: Packet, from_node: str) -> None:
        if self.faulted:
            self.fault_drops += 1
            return
        packet.hops += 1
        if packet.hops > self.hop_limit:
            # Forwarding loop safety net; topologies are trees in all
            # experiments so this should never trigger.  Multicast
            # fan-out shares one instance across branches, so
            # ``hops`` counts total router visits, not path depth —
            # the limit is scaled to the network size in build_routes
            # (a real loop revisits routers forever and still trips it).
            self.packets_dropped_no_route += 1
            return
        interceptor = self.interceptor
        if interceptor is not None and interceptor.intercept(packet, from_node):
            return
        self.packets_forwarded += 1
        if is_multicast(packet.dst):
            self.forward_multicast(packet, from_node)
        else:
            self.forward_unicast(packet)


class EcmpRouter(Router):
    """A router that sprays packets round-robin over parallel paths.

    Used to rebuild the paper's multipath robustness experiments (§4:
    "topologies presenting multiple paths between sender and receiver
    ... to verify the robustness of the scheme to out-of-order data or
    ACK delivery").  Per-packet round robin over unequal-delay paths is
    the worst case for reordering, which is exactly what those tests
    need.
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        #: destination (or multicast group) -> parallel next hops
        self.ecmp_groups: dict[Address, list[str]] = {}
        self._rr: dict[Address, int] = {}

    def set_ecmp(self, dst: Address, next_hops: list[str]) -> None:
        if len(next_hops) < 2:
            raise ValueError("ECMP needs at least two next hops")
        self.ecmp_groups[dst] = list(next_hops)
        self._rr[dst] = 0

    def _spray(self, packet: Packet) -> bool:
        hops = self.ecmp_groups[packet.dst]
        index = self._rr[packet.dst]
        self._rr[packet.dst] = (index + 1) % len(hops)
        return self.send_via(hops[index], packet)

    def forward_unicast(self, packet: Packet) -> bool:
        if packet.dst in self.ecmp_groups:
            return self._spray(packet)
        return super().forward_unicast(packet)

    def forward_multicast(self, packet: Packet, from_node: Optional[str]) -> int:
        if packet.dst in self.ecmp_groups:
            return 1 if self._spray(packet) else 0
        return super().forward_multicast(packet, from_node)
