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
and all of them are source-rooted trees: every host and every subtree
router hangs off the rest by one link.  So unicast tables cost one
solve per node of the graph's cyclic core only — what is left once
pendant trees are pruned, one node for a tree — and a pruned node
keeps a table of its own subtree and sends everything else up its one
link (see :func:`install_unicast_routes`): route memory grows as
nodes, not nodes².
"""

from __future__ import annotations

import heapq
from collections import deque
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

    Only the graph's cyclic core is solved.  A node is *pendant* when
    its one out-neighbour, its *parent*, is also its one in-neighbour
    (a self-loop, never on a shortest path, does not count).  Pendant
    nodes are pruned in one first-in first-out sweep that starts in
    graph order, and a pruned node's parent goes back on the queue; a
    node with no neighbour left is not pendant, so a tree prunes down
    to one node.  Every path into a pruned subtree enters and leaves
    through its parent, so (weights being non-negative) no shortest
    path between core nodes uses one and no pruned node relaxes a core
    node: each core node's :func:`first_hops` solve on the core is its
    full-graph solve, ties included, and a pruned subtree's nodes share
    the first hop to the node it hangs off.  A core node's table names
    every node it reaches, and a *root* (a core node subtrees hang off)
    also names itself.  A pruned node's table names its own subtree
    only, each name mapped to the child on the way (one shared empty
    table for every childless node); its parent is its *uplink* for
    every other name in its root's table, which the node reads
    (``Node.uplink_reach``) to tell a name on the uplink from one it
    does not reach.  So route memory grows as core nodes × nodes plus
    each pruned node's subtree, for the paper's trees under twice the
    node count.  A root's table names its owner, so "no route to
    yourself" is the readers' rule (:meth:`Node.unicast_next_hop`,
    :meth:`Node.forward_unicast`).  Sharing is safe because no table
    is mutated once installed: a rebuild replaces them.
    """
    outs = {u: len(out) - (u in out) for u, out in graph.items()}
    ins = dict.fromkeys(graph, 0)
    for u, out in graph.items():
        for v in out:
            if v != u:
                ins[v] += 1
    parent: dict[str, str] = {}  # in prune order
    queue = deque(graph)
    while queue:
        u = queue.popleft()
        if u in parent or outs[u] != 1 or ins[u] != 1:
            continue
        p = next(v for v in graph[u] if v != u and v not in parent)
        if u in graph[p]:  # so p is u's one in-neighbour too
            parent[u] = p
            outs[p] -= 1
            ins[p] -= 1
            queue.append(p)
    hung: dict[str, list[str]] = {}
    for u, p in parent.items():
        hung.setdefault(p, []).append(u)

    def subtree(root):
        stack = [root]
        while stack:
            u = stack.pop()
            yield u
            stack += hung.get(u, ())

    core = {u: {v: w for v, w in out.items() if v not in parent}
            for u, out in graph.items() if u not in parent}
    tables = {}
    for c, out in core.items():
        table = tables[c] = first_hops(core, c) if out else {}
        for a, hop in [(c, None), *table.items()]:
            for r in hung.get(a, ()):
                table.update(dict.fromkeys(subtree(r), r if hop is None else hop))
        if c in hung:
            table[c] = c  # so its subtrees' uplinks reach it
    childless: dict[str, str] = {}
    root_of: dict[str, str] = {}  # pruned node -> the core node it hangs off
    for u in reversed(parent):  # a parent before its children
        root_of[u] = root_of.get(parent[u], parent[u])
        tables[u] = ({v: c for c in hung[u] for v in subtree(c)}
                     if u in hung else childless)
    for name, node in nodes.items():
        node.unicast_routes = tables[name]
        node.uplink = parent.get(name)
        node.uplink_reach = tables[root_of[name]] if name in root_of else childless


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
