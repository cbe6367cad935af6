"""Tree extraction from connected edge sets under the power objective.

Deleting an edge never increases power (node payments are maxima over
incident edges), so greedily removing the non-bridge edge whose removal
helps most, then stripping leaves outside the required set, yields a tree
whose power is at most the power of the input edge set.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import UnionFind, strip_leaves
from .instance import Instance


def _bridges(adj: dict[int, list[tuple[int, int]]]) -> set[int]:
    """Edge ids that are bridges of the graph given as adjacency lists."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: set[int] = set()
    clock = 0
    for root in sorted(adj):
        if root in disc:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            node, parent_edge, neighbors = stack[-1]
            advanced = False
            for other, eid in neighbors:
                if eid == parent_edge:
                    continue
                if other in disc:
                    low[node] = min(low[node], disc[other])
                else:
                    disc[other] = low[other] = clock
                    clock += 1
                    stack.append((other, eid, iter(adj[other])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if stack:
                    pnode = stack[-1][0]
                    low[pnode] = min(low[pnode], low[node])
                    if low[node] > disc[pnode]:
                        bridges.add(parent_edge)
    return bridges


def extract_tree(instance: Instance, edge_ids, required: frozenset[int]) -> list[int]:
    """Reduce a connected edge set to a tree spanning `required`.

    Repeatedly deletes, among non-bridge edges, the one whose removal most
    reduces power (ties by smallest edge id), then strips non-required
    leaves. The result's power never exceeds the input edge set's power.
    """
    current = set(edge_ids)
    # Deleting a non-bridge keeps the node set and the components, so the
    # deletions needed for acyclicity number the unions that close a cycle.
    uf = UnionFind(instance.node_count)
    surplus = sum(not uf.union(u, v) for u, v, _ in (instance.edges[e] for e in current))
    if not uf.joins(required):
        raise ValueError("edge set does not connect the required nodes")

    for _ in range(surplus):
        adj: dict[int, list[tuple[int, int]]] = {}
        for eid in sorted(current):
            u, v, _ = instance.edges[eid]
            adj.setdefault(u, []).append((v, eid))
            adj.setdefault(v, []).append((u, eid))
        bridge_ids = _bridges(adj)
        node_max: dict[int, Fraction] = {}
        for eid in current:
            u, v, c = instance.edges[eid]
            for node in (u, v):
                if node_max.get(node, Fraction(-1)) < c:
                    node_max[node] = c
        best: tuple[Fraction, int] | None = None
        for eid in sorted(current - bridge_ids):
            u, v, c = instance.edges[eid]
            delta = Fraction(0)
            for node in (u, v):
                if node_max[node] == c:
                    rest = [instance.edges[e][2] for _, e in adj[node] if e != eid]
                    delta -= node_max[node] - max(rest, default=Fraction(0))
            if best is None or (delta, eid) < best:
                best = (delta, eid)
        current.remove(best[1])

    return strip_leaves(instance.edges, current, required)
