"""Route computation.

Unicast routing installs static shortest-path next hops (weighted by
propagation delay, with a small per-hop bias so equal-delay paths
prefer fewer hops).  Multicast routing installs a source-rooted
shortest-path tree for each (group, source) pair — the same structure
IP multicast (DVMRP/PIM) would build over these topologies, and the
one the paper's ns-2 scenarios assume.

The graph is a plain adjacency mapping and the solve a ``heapq``
Dijkstra.  The paper's topologies have a few dozen nodes, but the
hybrid 10^6-receiver topology has 386 and a real-member one 1000+,
almost all of them hosts on a single access link.  So unicast tables
cost one solve per node with more than one outgoing link, and every
single-homed node behind the same neighbour shares one table (see
:func:`install_unicast_routes`): route memory grows with routers x
nodes, not nodes².
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Optional

from .node import Node

#: ``graph[u][v]`` is the weight of the directed edge u->v.
Graph = dict[str, dict[str, float]]

#: Per-hop additive bias in the path metric; keeps paths minimal-hop
#: among equal-delay alternatives without affecting real comparisons.
HOP_BIAS = 1e-9


class NoPath(Exception):
    """A multicast member the source cannot reach."""


def build_graph(nodes: Mapping[str, Node], delays: Mapping[tuple[str, str], float]) -> Graph:
    """Build the directed adjacency mapping of the topology.

    ``delays`` maps directed edges (u, v) to the propagation delay of
    the u->v link; edge weight is delay + HOP_BIAS.  Neighbours keep
    link-creation order, which is what breaks equal-cost ties below.
    """
    graph: Graph = {name: {} for name in nodes}
    for (u, v), delay in delays.items():
        graph[u][v] = delay + HOP_BIAS
    return graph


def shortest_path_tree(graph: Graph, source: str) -> dict[str, Optional[str]]:
    """One Dijkstra solve: every node ``source`` reaches, mapped to its
    predecessor on the shortest path (``None`` for ``source``), in the
    order the solve settles them — a node always after its predecessor.

    Weights are non-negative (``Link`` rejects a negative delay).
    Equal-cost alternatives resolve as in networkx's
    ``single_source_dijkstra_path``, the reference
    ``tests/simulator/test_routing.py`` compares against: a predecessor
    is replaced on strict improvement only, and equal distances leave
    the fringe in the order they were pushed.
    """
    settled: dict[str, Optional[str]] = {}
    dist = {source: 0.0}
    fringe: list = [(0.0, 0, source, None)]
    pushed = 0
    while fringe:
        d, _, u, parent = heapq.heappop(fringe)
        if d > dist[u]:
            continue  # superseded by a shorter path found later
        settled[u] = parent
        for v, weight in graph[u].items():
            through_u = d + weight
            if v not in dist or through_u < dist[v]:
                dist[v] = through_u
                pushed += 1
                heapq.heappush(fringe, (through_u, pushed, v, u))
    return settled


def shortest_paths(graph: Graph, source: str) -> dict[str, list[str]]:
    """Path from ``source`` to every node it reaches."""
    paths: dict[str, list[str]] = {}
    for v, u in shortest_path_tree(graph, source).items():
        paths[v] = [v] if u is None else paths[u] + [v]
    return paths


def first_hops(graph: Graph, source: str) -> dict[str, str]:
    """First hop from ``source`` towards every other node it reaches:
    the same solve as :func:`shortest_paths`, read for the next hop
    only."""
    hops: dict[str, str] = {}
    for v, u in shortest_path_tree(graph, source).items():
        if u is not None:
            hops[v] = v if u == source else hops[u]
    return hops


def install_unicast_routes(graph: Graph, nodes: Mapping[str, Node]) -> None:
    """Install next-hop entries for every reachable destination at
    every node.  Overwrites existing unicast tables.

    A node with exactly one outgoing link (a host, a dead-end router)
    sends everything through it, so it costs no solve: every node
    behind one neighbour shares one table, all that neighbour reaches
    via the neighbour.  The table may name its owner, so "no route to
    yourself" is the readers' rule (:meth:`Node.unicast_next_hop`,
    :meth:`Node.forward_unicast`).  Sharing is safe because no table is
    mutated once installed: a rebuild replaces them.  Every other node
    gets one :func:`first_hops` solve, and so does a single-homed node
    that another hangs off, so no table derives from a derived one.
    """
    via = {u: next(iter(out)) for u, out in graph.items() if len(out) == 1}
    shared = dict.fromkeys(via.values())  # neighbour -> its hosts' table
    tables = {u: first_hops(graph, u) for u in graph
              if u not in via or u in shared}
    for neighbour in shared:
        table = shared[neighbour] = dict.fromkeys(tables[neighbour], neighbour)
        table[neighbour] = neighbour
    for u, neighbour in via.items():
        tables.setdefault(u, shared[neighbour])
    for name, node in nodes.items():
        node.unicast_routes = tables[name]


def compute_multicast_tree(
    paths: Mapping[str, list[str]], source: str, members: Iterable[str]
) -> dict[str, set[str]]:
    """Union of shortest paths from ``source`` to each member.

    ``paths`` is ``shortest_paths(graph, source)``, solved once by the
    caller however often membership changes.

    Returns, for every on-tree node, the set of downstream neighbours
    to which group traffic must be replicated; an unreachable member
    raises :class:`NoPath`.
    """
    downstream: dict[str, set[str]] = {}
    for member in members:
        path = paths.get(member)
        if path is None:
            raise NoPath(f"no path to {member} from {source}")
        for u, v in zip(path, path[1:]):
            downstream.setdefault(u, set()).add(v)
    return downstream


def install_multicast_tree(
    paths: Mapping[str, list[str]],
    nodes: Mapping[str, Node],
    group: str,
    source: str,
    members: Iterable[str],
) -> dict[str, set[str]]:
    """Compute and install the tree; returns the downstream map."""
    tree = compute_multicast_tree(paths, source, members)
    for name, node in nodes.items():
        # sorted tuple, not a set: replication order must not depend on
        # string hashing (PYTHONHASHSEED), or equal-timestamp delivery
        # interleaving across receivers varies run to run
        node.multicast_routes[group] = tuple(sorted(tree.get(name, ())))
    return tree
