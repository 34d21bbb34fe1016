"""Route computation.

Unicast routing installs static shortest-path next hops (weighted by
propagation delay, with a small per-hop bias so equal-delay paths
prefer fewer hops).  Multicast routing installs a source-rooted
shortest-path tree for each (group, source) pair — the same structure
IP multicast (DVMRP/PIM) would build over these topologies, and the
one the paper's ns-2 scenarios assume.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import networkx as nx

from .node import Node

#: Per-hop additive bias in the path metric; keeps paths minimal-hop
#: among equal-delay alternatives without affecting real comparisons.
HOP_BIAS = 1e-9


def build_graph(nodes: Mapping[str, Node], delays: Mapping[tuple[str, str], float]) -> nx.DiGraph:
    """Build a directed graph of the topology.

    ``delays`` maps directed edges (u, v) to the propagation delay of
    the u->v link; edge weight is delay + HOP_BIAS.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    for (u, v), delay in delays.items():
        graph.add_edge(u, v, weight=delay + HOP_BIAS)
    return graph


def shortest_paths(graph: nx.DiGraph, source: str) -> dict[str, list[str]]:
    """Path from ``source`` to every node it reaches: one Dijkstra solve."""
    return nx.single_source_dijkstra_path(graph, source, weight="weight")


def install_unicast_routes(graph: nx.DiGraph, nodes: Mapping[str, Node]) -> None:
    """Install next-hop entries for every reachable destination at
    every node.  Overwrites existing unicast tables."""
    for src in nodes:
        table: dict[str, str] = {}
        for dst, path in shortest_paths(graph, src).items():
            if dst == src or len(path) < 2:
                continue
            table[dst] = path[1]
        nodes[src].unicast_routes = table


def compute_multicast_tree(
    paths: Mapping[str, list[str]], source: str, members: Iterable[str]
) -> dict[str, set[str]]:
    """Union of shortest paths from ``source`` to each member.

    ``paths`` is ``shortest_paths(graph, source)``, solved once by the
    caller however often membership changes; per member it is the path
    ``nx.dijkstra_path`` returns (same search, same tie-breaks).

    Returns, for every on-tree node, the set of downstream neighbours
    to which group traffic must be replicated; an unreachable member
    raises ``nx.NetworkXNoPath``.
    """
    downstream: dict[str, set[str]] = {}
    for member in members:
        path = paths.get(member)
        if path is None:
            raise nx.NetworkXNoPath(f"No path to {member} from {source}.")
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
