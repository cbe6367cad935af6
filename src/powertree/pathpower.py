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
    weights = instance.weights
    best: dict[tuple[int, int], tuple[int, int, tuple[int, ...], tuple[int, ...]]] = {}
    heap: list[tuple[int, int, tuple[int, ...], tuple[int, ...], int, int]] = []

    def offer(state, power, n_edges, nodes, edges):
        cur = best.get(state)
        val = (power, n_edges, nodes, edges)
        if cur is None or val[:3] < cur[:3]:
            best[state] = val
            heapq.heappush(heap, (power, n_edges, nodes, edges, state[0], state[1]))

    for eid in instance.adjacency[src]:
        other = instance.other_end(eid, src)
        if forbidden and other in forbidden:
            continue
        offer((other, eid), max(cap_src, weights[eid]), 1, (src, other), (eid,))

    done: set[tuple[int, int]] = set()
    while heap:
        power, n_edges, nodes, edges, node, eid = heapq.heappop(heap)
        state = (node, eid)
        if state in done or best.get(state, ())[:3] != (power, n_edges, nodes):
            continue
        done.add(state)
        c_in = weights[eid]
        for nxt in instance.adjacency[node]:
            other = instance.other_end(nxt, node)
            if other in nodes:
                continue
            if forbidden and other in forbidden:
                continue
            offer(
                (other, nxt),
                power + max(c_in, weights[nxt]),
                n_edges + 1,
                nodes + (other,),
                edges + (nxt,),
            )
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
