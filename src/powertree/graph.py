"""Graph primitives shared by the solvers: union-find, connectivity, leaf
stripping, incidence, tree checks, tree rooting and chain contraction.

Edges are tuples whose first two entries are the endpoints, such as an
instance's (u, v, cost) triples, and an edge id is an index into the edge
sequence. Where a node id indexes a list (`UnionFind`, `connects`) it must be
a small non-negative integer; the other functions take any hashable ids.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable, Sequence


class UnionFind:
    """Disjoint sets over the node ids 0..size-1, with path halving."""

    __slots__ = ("parent",)

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; False if they were one set already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def joins(self, nodes: Iterable[int]) -> bool:
        """True iff all of `nodes` lie in one set (vacuously for none)."""
        it = iter(nodes)
        first = next(it, None)
        if first is None:
            return True
        root = self.find(first)
        return all(self.find(x) == root for x in it)


def connects(size: int, edges: Iterable[Sequence[int]], required: Iterable[int]) -> bool:
    """True iff `edges` put every node of `required` into one component."""
    uf = UnionFind(size)
    parent = uf.parent
    # union with find inlined: every Instance and every branch of the exact
    # solver runs this test, and calling find per endpoint made it ~1.4x slower
    for e in edges:
        a, b = e[0], e[1]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    return uf.joins(required)


def strip_leaves(edges: Sequence[Sequence[int]], edge_ids: Iterable[int], keep: Collection[int]) -> list[int]:
    """Sorted ids left of `edge_ids` after repeatedly deleting the edge at a
    degree-1 node outside `keep`.

    The result is the unique largest subgraph whose leaves all lie in
    `keep`, so the order of deletions does not matter.
    """
    alive = set(edge_ids)
    incident = incidence(edges, alive)
    degree = {node: len(ids) for node, ids in incident.items()}
    queue = [node for node, d in degree.items() if d == 1 and node not in keep]
    while queue:
        node = queue.pop()
        if degree[node] != 1:
            continue  # its last edge went with the leaf at the other end
        eid = next(e for e in incident[node] if e in alive)
        alive.remove(eid)
        u, v = edges[eid][0], edges[eid][1]
        other = v if u == node else u
        degree[node] = 0
        degree[other] -= 1
        if degree[other] == 1 and other not in keep:
            queue.append(other)
    return sorted(alive)


def incidence(edges: Sequence[Sequence[int]], edge_ids: Iterable[int]) -> dict[int, list[int]]:
    """Each endpoint of `edge_ids` mapped to its incident ids, in the order given."""
    incident: dict[int, list[int]] = {}
    for eid in edge_ids:
        e = edges[eid]
        incident.setdefault(e[0], []).append(eid)
        incident.setdefault(e[1], []).append(eid)
    return incident


def tree_fault(edges: Sequence[Sequence[Hashable]], nodes: Iterable[Hashable] = ()) -> str | None:
    """None if `edges` form one tree touching every node of `nodes`, else the
    first fault in edge order: "self-loop", "cyclic" or "disconnected".

    Node ids are relabelled to 0..n-1, so any hashable ids work.
    """
    dense: dict[Hashable, int] = {}
    for v in nodes:
        dense.setdefault(v, len(dense))
    uf = UnionFind(len(dense) + 2 * len(edges))
    for e in edges:
        u, v = e[0], e[1]
        if u == v:
            return "self-loop"
        if not uf.union(dense.setdefault(u, len(dense)), dense.setdefault(v, len(dense))):
            return "cyclic"
    return None if uf.joins(range(len(dense))) else "disconnected"


def rooted_children(edges: Sequence[Sequence[int]], root: int) -> dict[int, list[tuple[int, int]]]:
    """Each node of the tree `edges` rooted at `root` mapped to its
    (child, edge id) pairs in ascending child order; leaves map to [].

    The component of `root` in `edges` must be a tree.
    """
    incident = incidence(edges, range(len(edges)))
    children: dict[int, list[tuple[int, int]]] = {}
    stack = [(root, -1)]
    while stack:
        node, up = stack.pop()
        kids = sorted(
            (edges[eid][1] if edges[eid][0] == node else edges[eid][0], eid)
            for eid in incident.get(node, ()) if eid != up
        )
        children[node] = kids
        stack.extend((child, eid) for child, eid in kids)
    return children


def chains(children: dict[int, list[tuple[int, int]]], node: int) -> list[tuple[int, list[int]]]:
    """Each child edge of `node` in the rooted tree `children` (as from
    `rooted_children`) followed down through single-child nodes: the first
    node reached with no child or several, and the edge ids on the way, in
    child order."""
    out = []
    for end, eid in children[node]:
        path = [eid]
        while len(children[end]) == 1:
            end, eid = children[end][0]
            path.append(eid)
        out.append((end, path))
    return out
