"""Direct unit tests for route computation.

networkx is the reference here and nowhere else: ``routing`` solves
its own shortest paths, and the oracles below (drawn digraphs, the
paper's topologies) require its paths, trees and unicast next hops to
be networkx's, tie for tie.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig7_uncorrelated_loss import LEAF
from repro.experiments.robustness import build_multipath
from repro.simulator import (
    ACCESS,
    NON_LOSSY,
    Host,
    LinkSpec,
    Network,
    Packet,
    dumbbell,
    dumbbell_subtrees,
    star,
)
from repro.simulator import routing
from repro.simulator.node import Node
from repro.simulator.routing import (
    HOP_BIAS,
    NoPath,
    build_graph,
    compute_multicast_tree,
    install_multicast_tree,
    install_unicast_routes,
    shortest_paths,
)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def diamond():
    """a - {top, bot} - b, with the top path faster."""
    net = Network(seed=1)
    for h in ("a", "b"):
        net.add_host(h)
    for r in ("top", "bot"):
        net.add_router(r)
    fast = LinkSpec(1e6, 0.001, queue_slots=10)
    slow = LinkSpec(1e6, 0.1, queue_slots=10)
    net.duplex_link("a", "top", fast)
    net.duplex_link("top", "b", fast)
    net.duplex_link("a", "bot", slow)
    net.duplex_link("bot", "b", slow)
    return net


class TestGraph:
    def test_directed(self):
        net = Network(seed=2)
        net.add_host("a")
        net.add_host("b")
        net.simplex_link("a", "b", ACCESS)
        graph = build_graph(net.nodes, net.link_delays)
        assert graph == {"a": {"b": ACCESS.delay + HOP_BIAS}, "b": {}}


class TestUnicast:
    def test_no_self_route(self):
        net = diamond()
        graph = build_graph(net.nodes, net.link_delays)
        install_unicast_routes(graph, net.nodes)
        assert "a" not in net.nodes["a"].unicast_routes

    def test_single_homed_host_sending_to_itself_has_no_route(self):
        net = dumbbell(1, 1, NON_LOSSY)
        host, link = net.host("h0"), net.link("h0", "R0")
        before = host.packets_dropped_no_route
        assert host.send(Packet("h0", "h0", 100)) is False
        assert host.packets_dropped_no_route == before + 1
        assert link.sent == 0

    def test_dead_end_router_drops_unicast_to_itself(self):
        """``D`` hangs off ``R`` alone, so it shares ``R``'s derived
        table, which routes ``D`` back via ``R``: the packet must be
        dropped, not bounced."""
        net = dumbbell(1, 1, NON_LOSSY)
        net.add_router("D")
        net.duplex_link("R0", "D", ACCESS)
        net.build_routes()
        dead_end, link = net.router("D"), net.link("D", "R0")
        dead_end.receive(Packet("h0", "D", 100), from_node="R0")
        assert dead_end.packets_dropped_no_route == 1
        assert link.sent == 0

    def test_require_route_to_yourself_raises(self):
        net = dumbbell(1, 1, NON_LOSSY)
        with pytest.raises(NoPath):
            net.require_route("h0", "h0")

    def test_unreachable_destination_raises_at_send_time_only(self):
        """Partitioned nodes simply get no route entry."""
        net = Network(seed=3)
        net.add_host("a")
        net.add_host("island")
        graph = build_graph(net.nodes, net.link_delays)
        install_unicast_routes(graph, net.nodes)
        assert "island" not in net.nodes["a"].unicast_routes


class TestMulticastTree:
    def test_source_as_member_skipped(self):
        net = diamond()
        graph = build_graph(net.nodes, net.link_delays)
        tree = compute_multicast_tree(shortest_paths(graph, "a"), "a", ["a", "b"])
        assert tree["a"] == {"top"}

    def test_shared_trunk_single_entry(self):
        """Two members behind the same branch share tree edges."""
        net = Network(seed=4)
        net.add_host("s")
        net.add_router("R")
        net.add_host("m1")
        net.add_host("m2")
        net.duplex_link("s", "R", ACCESS)
        net.duplex_link("R", "m1", ACCESS)
        net.duplex_link("R", "m2", ACCESS)
        graph = build_graph(net.nodes, net.link_delays)
        tree = compute_multicast_tree(shortest_paths(graph, "s"), "s", ["m1", "m2"])
        assert tree["s"] == {"R"}
        assert tree["R"] == {"m1", "m2"}

    def test_install_overwrites_previous_tree(self):
        net = Network(seed=5)
        net.add_host("s")
        net.add_router("R")
        net.add_host("m1")
        net.add_host("m2")
        net.duplex_link("s", "R", ACCESS)
        net.duplex_link("R", "m1", ACCESS)
        net.duplex_link("R", "m2", ACCESS)
        graph = build_graph(net.nodes, net.link_delays)
        paths = shortest_paths(graph, "s")
        install_multicast_tree(paths, net.nodes, "mc:g", "s", ["m1", "m2"])
        assert net.nodes["R"].multicast_routes["mc:g"] == ("m1", "m2")
        install_multicast_tree(paths, net.nodes, "mc:g", "s", ["m1"])
        assert net.nodes["R"].multicast_routes["mc:g"] == ("m1",)

    def test_unreachable_member_raises(self):
        net = Network(seed=6)
        net.add_host("s")
        net.add_host("island")
        graph = build_graph(net.nodes, net.link_delays)
        with pytest.raises(NoPath, match="island"):
            compute_multicast_tree(shortest_paths(graph, "s"), "s", ["island"])


def reference_digraph(nx, nodes, weights):
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    for (u, v), weight in weights.items():
        graph.add_edge(u, v, weight=weight)
    return graph


NODES = "abcdefgh"
#: single-homed by construction: ``s`` hangs off a drawn node, ``t -> u``
#: is a two-node stub chain into another, ``v`` is isolated
STUBS = "stuv"
#: few distinct weights, so equal-cost alternatives are the rule;
#: 0.1 + 0.2 != 0.3 keeps a float near-tie in the draw
WEIGHTS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0])


@st.composite
def edges(draw):
    """Directed edge -> weight over NODES + STUBS, in a drawn
    insertion order."""
    weights = draw(st.dictionaries(
        st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
        WEIGHTS, max_size=24))
    s_at, u_at = draw(st.sampled_from(NODES)), draw(st.sampled_from(NODES))
    for edge in (("s", s_at), (s_at, "s"), ("t", "u"), ("u", u_at), (u_at, "t")):
        weights[edge] = draw(WEIGHTS)
    return dict(draw(st.permutations(list(weights.items()))))


EDGES = edges()


def adjacency(weights):
    graph = {name: {} for name in NODES + STUBS}
    for (u, v), weight in weights.items():
        graph[u][v] = weight
    return graph


def networkx_next_hops(paths, source, names):
    """networkx's first hop from ``source`` to every name, ``None`` for
    ``source`` itself and for every name it does not reach."""
    return {dst: paths[dst][1] if dst in paths and dst != source else None
            for dst in names}


def next_hops(node, names):
    return {dst: node.unicast_next_hop(dst) for dst in names}


@settings(max_examples=200, deadline=None)
@given(weights=EDGES)
def test_shortest_paths_are_networkx_single_source_dijkstra(nx, weights):
    """From every source, the same path to every reachable node and the
    same key set; and every node's next hop, solved or shared from a
    single-homed node's neighbour, is exactly networkx's first hop to
    every node name (none to itself or to a node it does not reach) —
    whatever the ties, zero-weight edges, stub chains, unreachable
    nodes and edge-insertion order."""
    graph = adjacency(weights)
    nodes = {name: Node(None, name) for name in graph}
    install_unicast_routes(graph, nodes)
    reference = reference_digraph(nx, nodes, weights)
    for source, node in nodes.items():
        paths = nx.single_source_dijkstra_path(reference, source, weight="weight")
        assert shortest_paths(graph, source) == paths
        assert next_hops(node, nodes) == networkx_next_hops(paths, source, nodes)


def per_member_dijkstra_routes(nx, net, source, members):
    """The tree as it used to be built: one ``nx.dijkstra_path`` solve
    per member on a fresh graph, rendered like ``multicast_routes``."""
    graph = reference_digraph(nx, net.nodes, {
        edge: delay + HOP_BIAS for edge, delay in net.link_delays.items()})
    downstream = {}
    for member in members:
        path = nx.dijkstra_path(graph, source, member, weight="weight")
        for u, v in zip(path, path[1:]):
            downstream.setdefault(u, set()).add(v)
    return {name: tuple(sorted(downstream.get(name, ()))) for name in net.nodes}


TOPOLOGIES = {
    "dumbbell": lambda: (dumbbell(2, 6, NON_LOSSY, seed=1), "h0"),
    "dumbbell_subtrees": lambda: (
        dumbbell_subtrees(12, subtrees=3, members="real", seed=2), "h0"),
    "fig7_star": lambda: (star(20, LEAF, seed=3), "src"),
    # equal-delay parallel paths: the tie must break the same way
    "ecmp_equal_cost": lambda: (build_multipath(4, delay_skew=0.0), "src"),
    "ecmp_skewed": lambda: (build_multipath(5, delay_skew=0.040), "src"),
}


class TestUnicastTables:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_tables_are_networkx_first_hops(self, nx, topology):
        net, _ = TOPOLOGIES[topology]()
        reference = reference_digraph(nx, net.nodes, {
            edge: delay + HOP_BIAS for edge, delay in net.link_delays.items()})
        for name, node in net.nodes.items():
            paths = nx.single_source_dijkstra_path(reference, name, weight="weight")
            assert (next_hops(node, net.nodes)
                    == networkx_next_hops(paths, name, net.nodes)), name

    @pytest.mark.parametrize("build, distinct", [
        (lambda: dumbbell_subtrees(10**6, subtrees=64), 130),
        (lambda: dumbbell_subtrees(2000, subtrees=16, members="real"), 34),
        (lambda: star(100, LEAF), 2),
        (lambda: dumbbell(2, 4, NON_LOSSY), 4),
    ], ids=["hybrid_1e6", "real_2000", "star_100", "dumbbell_2_4"])
    def test_single_homed_nodes_share_one_table_per_neighbour(self, build, distinct):
        """One table per solved node plus one per neighbour that
        single-homed nodes hang off, whatever the number of hosts."""
        net = build()
        tables = {id(node.unicast_routes) for node in net.nodes.values()}
        assert len(tables) == distinct

    @pytest.mark.parametrize("build, solved", [
        (lambda: dumbbell_subtrees(10**6, subtrees=64),
         {"R0"} | {f"T{k}" for k in range(64)}),
        (lambda: star(100, LEAF), {"R0"}),
    ], ids=["hybrid_1e6", "star_100"])
    def test_one_solve_per_node_with_more_than_one_link(
            self, monkeypatch, build, solved):
        """Hosts (320 of the hybrid topology's 386 nodes, 101 of the
        star's 102) share their router's table instead of solving."""
        solves = []
        real = routing.shortest_path_tree
        monkeypatch.setattr(
            routing, "shortest_path_tree",
            lambda graph, src: solves.append(src) or real(graph, src))
        build()
        assert len(solves) == len(solved)
        assert set(solves) == solved


class TestStoredSourcePaths:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_joins_one_by_one_build_the_per_member_dijkstra_tree(self, nx, topology):
        net, source = TOPOLOGIES[topology]()
        hosts = sorted(name for name, node in net.nodes.items()
                       if isinstance(node, Host) and name != source)
        random.Random(topology).shuffle(hosts)
        for joined in range(1, len(hosts) + 1):
            members = hosts[:joined]
            net.set_group("mc:g", source, members)
            installed = {name: node.multicast_routes["mc:g"]
                         for name, node in net.nodes.items()}
            assert installed == per_member_dijkstra_routes(nx, net, source, members)

    def test_one_solve_per_source_until_the_topology_changes(self, monkeypatch):
        net, source = TOPOLOGIES["fig7_star"]()
        solves = []
        real = routing.shortest_paths
        monkeypatch.setattr(
            routing, "shortest_paths",
            lambda graph, src: solves.append(src) or real(graph, src))
        for joined in range(1, 11):
            net.set_group("mc:g", source, [f"r{i}" for i in range(joined)])
        assert solves == [source]
        # a new node and link drop the graph and the paths solved on it
        net.add_host("late")
        net.duplex_link("R0", "late", ACCESS)
        assert net._graph is None
        net.set_group("mc:g", source, ["r0", "late"])
        assert solves == [source, source]
        assert net.nodes["R0"].multicast_routes["mc:g"] == ("late", "r0")
