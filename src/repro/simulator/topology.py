"""Topology construction.

:class:`Network` is the top-level container an experiment builds: it
owns the simulator, the nodes, the links, and the derived routing
state.  :class:`LinkSpec` captures the paper's per-link knobs (rate,
propagation delay, queue size in slots or bytes, random loss), i.e.
exactly a dummynet pipe configuration.

Canned builders cover the §4 topologies: a dumbbell (Figs. 3, 4, 6), a
two-bottleneck tree (Fig. 5) and a star of independent links (Fig. 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .engine import Simulator
from .link import Link
from .loss_models import BernoulliLoss, LossModel, NoLoss
from .node import Host, Node, Router
from .packet import Address, Packet
from .queues import DropTailQueue
from .rng import RngRegistry
from . import routing


@dataclass(frozen=True)
class LinkSpec:
    """A dummynet-style pipe configuration.

    Exactly one of ``queue_slots`` / ``queue_bytes`` is normally set;
    setting neither gives the paper's default of 30 slots.
    ``rate_bps`` must be positive, ``delay`` finite and non-negative
    (a NaN would halt the event loop), and ``loss_rate`` must lie in
    [0, 1]; only a lossy link draws, so only it gets a random stream.
    """

    rate_bps: float
    delay: float
    queue_slots: Optional[int] = None
    queue_bytes: Optional[int] = None
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.rate_bps > 0:
            raise ValueError(f"rate_bps must be positive, not {self.rate_bps!r}")
        if not 0.0 <= self.delay < math.inf:
            raise ValueError(
                f"delay cannot be negative, NaN or infinite, not {self.delay!r}")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], not {self.loss_rate!r}")

    def make_queue(self) -> DropTailQueue:
        if self.queue_slots is None and self.queue_bytes is None:
            return DropTailQueue(max_slots=30)
        return DropTailQueue(max_slots=self.queue_slots, max_bytes=self.queue_bytes)

    def make_loss(self, streams: RngRegistry, name: str) -> LossModel:
        if self.loss_rate > 0.0:
            return BernoulliLoss(self.loss_rate, streams.stream(name))
        return NoLoss()


#: The paper's two canonical bottleneck configurations (§4):
#: non-lossy: 500 kbit/s, 50 ms, 30 slots — drops only from congestion.
NON_LOSSY = LinkSpec(rate_bps=500_000, delay=0.050, queue_slots=30)
#: lossy: 2 Mbit/s, 230 ms, 30 KB queue, 3 % random loss.
LOSSY = LinkSpec(rate_bps=2_000_000, delay=0.230, queue_bytes=30_000, loss_rate=0.03)

#: Fast access links used for non-bottleneck edges.
ACCESS = LinkSpec(rate_bps=100_000_000, delay=0.0005, queue_slots=1000)


class Network:
    """A simulated network: nodes + links + routing.

    Call :meth:`build_routes` once the topology is wired; multicast
    trees are installed per (group, source) with :meth:`set_group`.
    """

    def __init__(self, seed: int = 0):
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.nodes: dict[str, Node] = {}
        self.link_delays: dict[tuple[str, str], float] = {}
        #: injectors installed via :meth:`install_faults`
        self.fault_injectors: list = []
        self._graph = None
        #: source -> routing.shortest_paths over ``_graph``, reset with it
        self._source_paths: dict[str, dict[str, list[str]]] = {}
        # Per-network id counters so identically constructed networks
        # produce identical protocol ids (and thus identical derived
        # RNG streams) run after run.
        self._tsi_counter = 0
        self._flow_counter = 0

    def next_tsi(self) -> int:
        self._tsi_counter += 1
        return self._tsi_counter

    def next_flow_id(self) -> int:
        self._flow_counter += 1
        return self._flow_counter

    # -- construction ------------------------------------------------------

    def add_host(self, name: str) -> Host:
        return self._add(Host(self.sim, name))

    def add_router(self, name: str) -> Router:
        return self._add(Router(self.sim, name))

    def add_ecmp_router(self, name: str):
        from .node import EcmpRouter

        return self._add(EcmpRouter(self.sim, name))

    def _add(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self._graph = None
        return node

    def host(self, name: str) -> Host:
        node = self.nodes[name]
        if not isinstance(node, Host):
            raise TypeError(f"{name} is not a Host")
        return node

    def router(self, name: str) -> Router:
        node = self.nodes[name]
        if not isinstance(node, Router):
            raise TypeError(f"{name} is not a Router")
        return node

    def simplex_link(self, a: str, b: str, spec: LinkSpec) -> Link:
        """Create the unidirectional a->b link."""
        src, dst = self.nodes[a], self.nodes[b]
        name = f"{a}->{b}"
        link = Link(
            self.sim,
            name,
            rate_bps=spec.rate_bps,
            delay=spec.delay,
            queue=spec.make_queue(),
            loss=spec.make_loss(self.rng, f"loss:{name}"),
        )
        link.connect(lambda packet, _dst=dst, _from=a: _dst.receive(packet, _from))
        src.attach_link(b, link)
        self.link_delays[(a, b)] = spec.delay
        self._graph = None
        return link

    def duplex_link(
        self, a: str, b: str, spec: LinkSpec, reverse_spec: Optional[LinkSpec] = None
    ) -> tuple[Link, Link]:
        """Create links both ways; ``reverse_spec`` defaults to ``spec``."""
        forward = self.simplex_link(a, b, spec)
        backward = self.simplex_link(b, a, reverse_spec if reverse_spec else spec)
        return forward, backward

    def link(self, a: str, b: str) -> Link:
        return self.nodes[a].links[b]

    # -- routing -----------------------------------------------------------

    def graph(self):
        if self._graph is None:
            self._graph = routing.build_graph(self.nodes, self.link_delays)
            self._source_paths = {}
        return self._graph

    def build_routes(self) -> None:
        """(Re)compute unicast next hops everywhere."""
        routing.install_unicast_routes(self.graph(), self.nodes)
        # Multicast fan-out shares one packet instance across
        # branches, so a packet's hop counter accumulates one visit
        # per router on the whole tree, not per path.  In a tree each
        # router is visited at most once, so 2x the node count leaves
        # headroom while a genuine forwarding loop (unbounded visits)
        # still trips the guard.
        hop_limit = max(Packet.MAX_HOPS, 2 * len(self.nodes))
        for node in self.nodes.values():
            node.hop_limit = hop_limit

    def require_route(self, src: str, dst: str) -> None:
        """Raise :class:`routing.NoPath` unless ``src`` has a unicast
        next hop towards ``dst`` (``KeyError`` for an unknown ``src``)."""
        if self.nodes[src].unicast_next_hop(dst) is None:
            raise routing.NoPath(
                f"no unicast route from {src} to {dst}: call "
                "build_routes() after wiring the topology")

    def source_paths(self, source: str) -> dict[str, list[str]]:
        """Shortest path from ``source`` to every node it reaches,
        solved once per source until the topology changes."""
        graph = self.graph()
        paths = self._source_paths.get(source)
        if paths is None:
            paths = self._source_paths[source] = routing.shortest_paths(graph, source)
        return paths

    def set_group(self, group: Address, source: str, members: list[str]) -> None:
        """Install the multicast tree for ``group`` rooted at ``source``
        and subscribe the member hosts."""
        routing.install_multicast_tree(
            self.source_paths(source), self.nodes, group, source, members)
        for member in members:
            self.host(member).join_group(group)

    # -- fault injection ---------------------------------------------------

    def install_faults(self, plan, acker_lookup=None, receiver_lookup=None):
        """Compile a :class:`~repro.simulator.faults.FaultPlan` onto
        this network's event heap; returns the
        :class:`~repro.simulator.faults.FaultInjector`.  Raises
        ``ValueError`` if the plan names a link or node the network
        lacks.

        ``acker_lookup`` is a zero-argument callable resolving the
        :data:`~repro.simulator.faults.ACKER` sentinel at fire time;
        ``receiver_lookup`` maps a host name to the agent a
        :class:`~repro.simulator.faults.ReceiverEpisode` starts and
        stops on.  A protocol session supplies both.
        """
        from .faults import FaultInjector

        injector = FaultInjector(self, plan, acker_lookup=acker_lookup,
                                 receiver_lookup=receiver_lookup)
        self.fault_injectors.append(injector)
        return injector

    # -- execution -----------------------------------------------------------

    def run(self, until: float) -> None:
        self.sim.run(until=until)


# ---------------------------------------------------------------------------
# Canned topologies for the paper's experiments
# ---------------------------------------------------------------------------


def dumbbell(
    n_left: int,
    n_right: int,
    bottleneck: LinkSpec,
    seed: int = 0,
) -> Network:
    """``n_left`` hosts -- R0 ==bottleneck== R1 -- ``n_right`` hosts.

    Hosts are named ``h0..`` on the left and ``r0..`` on the right.
    The bottleneck applies in both directions (ACK path shares it, as
    in the paper's testbed).
    """
    net = Network(seed=seed)
    net.add_router("R0")
    net.add_router("R1")
    for i in range(n_left):
        net.add_host(f"h{i}")
        net.duplex_link(f"h{i}", "R0", ACCESS)
    for i in range(n_right):
        net.add_host(f"r{i}")
        net.duplex_link("R1", f"r{i}", ACCESS)
    net.duplex_link("R0", "R1", bottleneck)
    net.build_routes()
    return net


@dataclass(frozen=True)
class SubtreePlan:
    """Layout of a :func:`dumbbell_subtrees` network.

    The plan is the *name space* of the group: member identities exist
    as strings computed on demand (``t{k}r{i}``), never as a
    million-entry list, so a 10^6-receiver plan costs the same to hold
    as a 10-receiver one.  ``members="real"`` instantiates one host
    per member (exact mode, small N); ``members="virtual"`` creates
    only the per-subtree aggregate host plus a fixed pool of promotion
    *slot* hosts, and the tail lives as analytic state in
    :mod:`repro.pgm.aggregate`.
    """

    n_receivers: int
    subtrees: int
    members: str  # "real" | "virtual"
    slots: int    # promotion slot hosts per subtree (virtual mode)
    #: members per subtree (n split as evenly as possible)
    sizes: tuple[int, ...] = field(default=())

    # -- the naming scheme --------------------------------------------------

    def router(self, k: int) -> str:
        return f"T{k}"

    def routers(self) -> list[str]:
        return [self.router(k) for k in range(self.subtrees)]

    def identity(self, k: int, i: int) -> str:
        """Report identity of member ``i`` of subtree ``k`` — equal to
        its host name in real mode, synthetic in virtual mode."""
        return f"t{k}r{i}"

    def agg_host(self, k: int) -> str:
        return f"t{k}agg"

    def slot_host(self, k: int, j: int) -> str:
        return f"t{k}s{j}"

    def identities(self, k: int):
        """Member identities of subtree ``k`` (lazy)."""
        return (self.identity(k, i) for i in range(self.sizes[k]))

    def subtree_of(self, identity: str) -> Optional[int]:
        """Parse ``t{k}r{i}`` back to its subtree index, or None if the
        string is not a member identity of this plan."""
        if not identity.startswith("t") or "r" not in identity:
            return None
        head, _, tail = identity[1:].partition("r")
        if not head.isdigit() or not tail.isdigit():
            return None
        k, i = int(head), int(tail)
        if k >= self.subtrees or i >= self.sizes[k]:
            return None
        return k

    def session_hosts(self) -> list[str]:
        """The hosts a session subscribes to the group.

        Real mode: every member host (O(N)).  Virtual mode: the
        aggregate host plus the slot pool per subtree (O(K)).
        """
        if self.members == "real":
            return [self.identity(k, i)
                    for k in range(self.subtrees)
                    for i in range(self.sizes[k])]
        hosts = []
        for k in range(self.subtrees):
            hosts.append(self.agg_host(k))
            hosts.extend(self.slot_host(k, j) for j in range(self.slots))
        return hosts


def _split_sizes(n: int, k: int) -> tuple[int, ...]:
    base, extra = divmod(n, k)
    return tuple(base + (1 if i < extra else 0) for i in range(k))


def dumbbell_subtrees(
    n_receivers: int,
    subtrees: int = 1,
    bottleneck: LinkSpec = NON_LOSSY,
    seed: int = 0,
    members: str = "virtual",
    slots: int = 4,
) -> Network:
    """``h0 -- R0 ==bottleneck== T{k} -- subtree k's receivers``.

    ``n_receivers`` split across ``subtrees`` shared bottlenecks.  In
    ``members="real"`` mode every member gets its own host (``t{k}r{i}``,
    exact simulation, O(N) construction).  In ``members="virtual"``
    mode each subtree gets one aggregate host (``t{k}agg``) and
    ``slots`` promotion slot hosts (``t{k}s{j}``) — node count is
    O(subtrees * slots) regardless of ``n_receivers``.  Routing costs
    one solve per router over every node (a router's hosts share one
    table), measured on a 2-CPU x86 host under CPython 3.11: 10^6
    receivers in 64 subtrees (386 nodes) build in ≈27 ms, in 256
    subtrees (1538 nodes) in ≈0.42 s, and 2000 real members in 16
    subtrees (2018 nodes) in ≈0.05 s.  The layout is recorded on the
    returned network as ``net.subtree_plan`` for
    :func:`repro.pgm.create_session`'s ``aggregate=`` mode.
    """
    if n_receivers < 1:
        raise ValueError("n_receivers must be >= 1")
    if subtrees < 1 or subtrees > n_receivers:
        raise ValueError("subtrees must be in [1, n_receivers]")
    if members not in ("real", "virtual"):
        raise ValueError(f"members must be 'real' or 'virtual', not {members!r}")
    plan = SubtreePlan(n_receivers, subtrees, members, slots,
                       _split_sizes(n_receivers, subtrees))
    net = Network(seed=seed)
    net.add_host("h0")
    net.add_router("R0")
    net.duplex_link("h0", "R0", ACCESS)
    for k in range(subtrees):
        router = plan.router(k)
        net.add_router(router)
        net.duplex_link("R0", router, bottleneck)
        if members == "real":
            for i in range(plan.sizes[k]):
                name = plan.identity(k, i)
                net.add_host(name)
                net.duplex_link(router, name, ACCESS)
        else:
            agg = plan.agg_host(k)
            net.add_host(agg)
            net.duplex_link(router, agg, ACCESS)
            for j in range(slots):
                slot = plan.slot_host(k, j)
                net.add_host(slot)
                net.duplex_link(router, slot, ACCESS)
    net.build_routes()
    net.subtree_plan = plan
    return net


def star(
    n_leaves: int,
    leaf_spec: LinkSpec,
    access: LinkSpec = ACCESS,
    seed: int = 0,
) -> Network:
    """One source host ``src`` behind router ``R0``, with ``n_leaves``
    receivers each behind its own independent link (Fig. 7)."""
    net = Network(seed=seed)
    net.add_host("src")
    net.add_router("R0")
    net.duplex_link("src", "R0", access)
    for i in range(n_leaves):
        net.add_host(f"r{i}")
        net.duplex_link("R0", f"r{i}", leaf_spec)
    net.build_routes()
    return net


def two_bottleneck(
    l1: LinkSpec,
    l2: LinkSpec,
    seed: int = 0,
) -> Network:
    """The Fig. 5 topology::

        src -- R0 ==L1== R1 -- pr1
                \\=L2== R2 -- pr2, tr   (TCP receiver shares L2)

    with the TCP sender ``ts`` co-located with ``src`` behind R0.
    """
    net = Network(seed=seed)
    for host in ("src", "ts", "pr1", "pr2", "tr"):
        net.add_host(host)
    for router in ("R0", "R1", "R2"):
        net.add_router(router)
    net.duplex_link("src", "R0", ACCESS)
    net.duplex_link("ts", "R0", ACCESS)
    net.duplex_link("R0", "R1", l1)
    net.duplex_link("R0", "R2", l2)
    net.duplex_link("R1", "pr1", ACCESS)
    net.duplex_link("R2", "pr2", ACCESS)
    net.duplex_link("R2", "tr", ACCESS)
    net.build_routes()
    return net
