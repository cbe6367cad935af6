"""Min-power paths (symmetric unicast).

The search runs over states (current node, id of the edge just traversed);
moving from state (v, e) along edge f costing b accrues max(c(e), b), the
power paid at v. The path's two endpoints pay their single incident edge,
realized as an initial and a final surcharge. The search adds and compares
the instance's scaled int weights; only `PathResult.power` is a Fraction.
Ties broken by fewer edges, then lexicographically smallest node sequence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .instance import Instance


class PathError(ValueError):
    """Raised when no path exists or the query is malformed."""


@dataclass(frozen=True)
class PathResult:
    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    power: Fraction

    def to_record(self) -> dict:
        from .instance import format_cost

        return {
            "nodes": list(self.nodes),
            "edges": list(self.edges),
            "power": format_cost(self.power),
        }


def capped_state_search(
    instance: Instance,
    src: int,
    cap_src: int,
    forbidden: frozenset[int] | None = None,
) -> dict[tuple[int, int], tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """Best accrued power per state (node, entering edge id) from src.

    Powers and `cap_src` are in the instance's scaled units (`weights`).
    The accrued value covers every node on the path except the final one;
    the first payment is max(cap_src, first edge weight). Returns per state
    (power, edge count, node sequence, edge id sequence); ties prefer fewer
    edges, then the lexicographically smallest node sequence. Nodes in
    `forbidden` are never traversed.
    """
    edges, weights, adjacency = instance.edges, instance.weights, instance.adjacency
    forbidden = forbidden or frozenset()
    best: dict[tuple[int, int], tuple[int, int, tuple[int, ...], tuple[int, ...]]] = {}
    heap: list[tuple[int, int, tuple[int, ...], tuple[int, ...], int, int]] = []
    push, pop = heapq.heappush, heapq.heappop

    for eid in adjacency[src]:
        u, v, _ = edges[eid]
        other = v if u == src else u
        if other in forbidden:
            continue
        w = weights[eid]
        power = cap_src if cap_src > w else w
        nodes, path = (src, other), (eid,)
        best[other, eid] = (power, 1, nodes, path)
        push(heap, (power, 1, nodes, path, other, eid))

    # A label is replaced only by a strictly better one, and each stored
    # label holds its own node tuple, so a popped entry is current iff its
    # node tuple is the stored one. A popped state is never improved later:
    # every label pushed after it is longer and at least as costly.
    while heap:
        power, n_edges, nodes, path, node, eid = pop(heap)
        if best[node, eid][2] is not nodes:
            continue
        c_in = weights[eid]
        n_next = n_edges + 1
        for nxt in adjacency[node]:
            u, v, _ = edges[nxt]
            other = v if u == node else u
            if other in nodes or other in forbidden:
                continue
            w = weights[nxt]
            new_power = power + (c_in if c_in > w else w)
            state = (other, nxt)
            new_nodes = nodes + (other,)
            cur = best.get(state)
            if cur is not None and (new_power, n_next, new_nodes) >= cur[:3]:
                continue
            new_path = path + (nxt,)
            best[state] = (new_power, n_next, new_nodes, new_path)
            push(heap, (new_power, n_next, new_nodes, new_path, other, nxt))
    return best


def min_power_path(instance: Instance, src: int, dst: int) -> PathResult:
    """Minimum-power path between two nodes."""
    if src == dst:
        raise PathError("src and dst must differ")
    for node in (src, dst):
        if not (0 <= node < instance.node_count):
            raise PathError(f"node {node} out of range")
    answer = None
    states = capped_state_search(instance, src, 0)
    for (node, eid), (power, n_edges, nodes, edges) in states.items():
        if node != dst:
            continue
        cand = (power + instance.weights[eid], n_edges, nodes, edges)
        if answer is None or cand[:3] < answer[:3]:
            answer = cand
    if answer is None:
        raise PathError(f"node {dst} unreachable from {src}")
    return PathResult(answer[2], answer[3], Fraction(answer[0], instance.scale))
