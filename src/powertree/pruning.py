"""Tree extraction from connected edge sets under the power objective.

Deleting an edge never increases power (node payments are maxima over
incident edges), so greedily removing the non-bridge edge whose removal
helps most, then stripping leaves outside the required set, yields a tree
whose power is at most the power of the input edge set.
"""

from __future__ import annotations

from .graph import UnionFind, connects, strip_leaves
from .instance import Instance, edge_set_power


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
    surplus = sum(not uf.union(*instance.edges[e][:2]) for e in current)
    if not uf.joins(required):
        raise ValueError("edge set does not connect the required nodes")

    if surplus:
        # (u, v, weight) per edge: powers are compared in the instance's scaled ints
        scaled = dict(zip(current, instance.scaled_edges(current)))
    for _ in range(surplus):
        power = edge_set_power(scaled[e] for e in current)
        best = None
        for eid in sorted(current):
            rest = [scaled[e] for e in current if e != eid]
            if not connects(instance.node_count, rest, scaled[eid][:2]):
                continue  # a bridge
            cand = (edge_set_power(rest) - power, eid)
            if best is None or cand < best:
                best = cand
        current.remove(best[1])

    return strip_leaves(instance.edges, current, required)
