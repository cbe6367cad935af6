"""Exact brute-force min-power solver and min-cost baselines.

The exact solver enumerates candidate trees by contraction/deletion growth
from the root with a running power lower bound; it is meant for desk-scale
instances (see the node guard). The baselines are a minimum spanning tree
(spanning case) and exact Dreyfus-Wagner / metric-closure min-cost Steiner
trees, all evaluated under the power objective. The searches add and
compare the instance's scaled int weights; `evaluate` builds the result.
"""

from __future__ import annotations

import heapq
from itertools import combinations

from .graph import UnionFind, connects, strip_leaves
from .instance import Instance, PowerTree, evaluate


class SolverError(ValueError):
    """Raised on guard violations or infeasible solver inputs."""


def exact_min_power(instance: Instance, mode: str = "steiner", node_guard: int = 12) -> PowerTree:
    """Global minimum-power tree by exhaustive branch-and-bound.

    mode="spanning" requires every node; mode="steiner" requires the terminal
    set. Ties are resolved deterministically: the result is the first optimum
    the search reaches, where each branch first includes, then excludes, the
    cheapest crossing edge by (weight, id). Every leaf of the result is a
    required node. The node guard bounds the default instance size; callers
    may raise it for structured instances at their own risk.
    """
    if mode not in ("steiner", "spanning"):
        raise SolverError(f"unknown mode {mode!r}")
    if instance.node_count > node_guard:
        raise SolverError(f"node count {instance.node_count} exceeds guard {node_guard}")
    required = frozenset(range(instance.node_count)) if mode == "spanning" else instance.terminals
    # Invariant of every branch: the unbanned edges join the root (a terminal)
    # and every required node. So each required node outside the tree has an
    # unbanned edge, and some unbanned edge crosses out of the tree.
    if not connects(instance.node_count, instance.edges, required):
        raise SolverError("required nodes are disconnected")

    edges, weights, adjacency = instance.edges, instance.weights, instance.adjacency
    n = instance.node_count
    ends = [(u, v) for u, v, _ in edges]
    is_required = [x in required for x in range(n)]
    n_required = len(required)
    root = instance.root

    # the first descent always takes the cheapest crossing edge (Prim's tree),
    # so the search finds its own upper bound before it has to prune
    best_power: int | None = None
    best_edges: tuple[int, ...] = ()

    in_tree = [False] * n
    in_tree[root] = True
    node_max = [0] * n  # read only for nodes in the tree
    banned = [False] * len(edges)

    def cheapest(x: int) -> int | None:
        """The cheapest unbanned weight incident to x."""
        return min((weights[eid] for eid in adjacency[x] if not banned[eid]), default=None)

    # The lower bound adds to a branch's power the cheapest unbanned incident
    # weight of each required node outside the tree: `extra` below, kept
    # with `cheap`, which holds that weight for every node outside the tree.
    # A ban changes only the cheap entry of its outer node.
    cheap = [cheapest(x) for x in range(n)]

    def still_joined(outer: int) -> bool:
        """The invariant after banning an edge from the tree to `outer`: either
        `outer` still reaches the tree, or its cut-off side holds no required
        node."""
        seen = {outer}
        stack = [outer]
        while stack:
            x = stack.pop()
            for eid in adjacency[x]:
                if banned[eid]:
                    continue
                u, v = ends[eid]
                y = v if u == x else u
                if in_tree[y]:
                    return True
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return required.isdisjoint(seen)

    order = [(eid, *ends[eid], weights[eid]) for eid in sorted(range(len(edges)), key=lambda e: (weights[e], e))]
    selected: list[int] = []

    def recurse(power: int, covered: int, extra: int) -> None:
        nonlocal best_power, best_edges
        if covered == n_required:
            if best_power is None or power < best_power:
                best_power = power
                best_edges = tuple(selected)
            return
        if best_power is not None and power + extra >= best_power:
            return
        # The tree still grows by some unbanned crossing edge, which raises
        # both of its ends to at least its weight; `step` is the least such
        # rise beyond `power + extra` over those edges. The branch edge
        # `pick` is the first of them in `order`.
        pick = -1
        step = 0
        for eid, a, b, w in order:
            if in_tree[a] == in_tree[b] or banned[eid]:
                continue
            x, y = (a, b) if in_tree[a] else (b, a)
            rise = w - cheap[y] if is_required[y] else w
            if w > node_max[x]:
                rise += w - node_max[x]
            if pick < 0:
                pick, c, inner, outer = eid, w, x, y
                step = rise
            elif rise < step:
                step = rise
            if not step:
                break
        if best_power is not None and power + extra + step >= best_power:
            return
        outer_required = is_required[outer]

        # include branch
        selected.append(pick)
        in_tree[outer] = True
        old_inner = node_max[inner]
        node_max[outer] = c
        if c > old_inner:
            node_max[inner] = c
            delta = 2 * c - old_inner
        else:
            delta = c
        recurse(power + delta, covered + outer_required, extra - cheap[outer] if outer_required else extra)
        node_max[inner] = old_inner
        in_tree[outer] = False
        selected.pop()

        # exclude branch
        banned[pick] = True
        if still_joined(outer):
            old_cheap = cheap[outer]
            if c == old_cheap:
                cheap[outer] = cheapest(outer)
                if outer_required:
                    extra += cheap[outer] - old_cheap
            recurse(power, covered, extra)
            cheap[outer] = old_cheap
        banned[pick] = False

    recurse(0, 1, sum(cheap[t] for t in required if t != root))
    # zero-cost edges to non-required leaves tie with the tree without them
    return evaluate(instance, strip_leaves(edges, best_edges, required))


# ---------------------------------------------------------------------------
# shortest paths (by scaled weight) with edge predecessors, exact arithmetic


def _grow(instance: Instance, labels: list[int | None]) -> list[int | None]:
    """Multi-source Dijkstra: lower each label to the cheapest label-plus-path
    weight, in place, and return each node's last path edge (None where a
    node keeps its own label)."""
    n = instance.node_count
    edges, weights = instance.edges, instance.weights
    pred_edge: list[int | None] = [None] * n
    heap = [(d, v) for v, d in enumerate(labels) if d is not None]
    heapq.heapify(heap)
    done = [False] * n
    while heap:
        d, v = heapq.heappop(heap)
        if done[v] or labels[v] != d:
            continue
        done[v] = True
        for eid in instance.adjacency[v]:
            a, b, _ = edges[eid]
            other = b if a == v else a
            nd = d + weights[eid]
            if labels[other] is None or nd < labels[other]:
                labels[other] = nd
                pred_edge[other] = eid
                heapq.heappush(heap, (nd, other))
    return pred_edge


def _walk_path(instance: Instance, pred_edge: list[int | None], source: int, target: int) -> list[int]:
    out = []
    node = target
    while node != source:
        eid = pred_edge[node]
        if eid is None:
            raise SolverError(f"node {target} unreachable from {source}")
        out.append(eid)
        node = instance.other_end(eid, node)
    return out


def _kruskal(instance: Instance, edge_ids) -> list[int]:
    """Minimum spanning forest of the given edges (ties by edge id)."""
    uf = UnionFind(instance.node_count)
    return [
        eid for eid in sorted(edge_ids, key=lambda e: (instance.weights[e], e))
        if uf.union(instance.edges[eid][0], instance.edges[eid][1])
    ]


def _terminal_tree(instance: Instance, edge_ids) -> list[int]:
    """Cheapest spanning forest of a connecting edge set, stripped to the terminals."""
    return strip_leaves(instance.edges, _kruskal(instance, edge_ids), instance.terminals)


def _dreyfus_wagner(instance: Instance) -> list[int]:
    """Exact min-cost Steiner tree edges via the terminal-subset DP."""
    terms = sorted(instance.terminals)
    k = len(terms)
    if k == 1:
        return []
    n = instance.node_count
    full = (1 << k) - 1
    dp: list[list[int | None]] = [[None] * n for _ in range(1 << k)]
    split: list[list[int | None]] = [[None] * n for _ in range(1 << k)]
    pred: list[list[int | None] | None] = [None] * (1 << k)
    for i, t in enumerate(terms):
        dp[1 << i][t] = 0

    for mask in range(1, full + 1):
        low = mask & (-mask)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                rest = mask ^ sub
                for v in range(n):
                    a, b = dp[sub][v], dp[rest][v]
                    if a is not None and b is not None:
                        cand = a + b
                        if dp[mask][v] is None or cand < dp[mask][v]:
                            dp[mask][v] = cand
                            split[mask][v] = sub
            sub = (sub - 1) & mask
        pred[mask] = _grow(instance, dp[mask])

    target = terms[0]
    if dp[full][target] is None:
        raise SolverError("terminals are disconnected")

    edges: set[int] = set()
    stack = [(full, target)]
    while stack:
        mask, v = stack.pop()
        while pred[mask][v] is not None:
            eid = pred[mask][v]
            edges.add(eid)
            v = instance.other_end(eid, v)
        sub = split[mask][v]
        if sub is not None:
            stack += ((sub, v), (mask ^ sub, v))
    return _terminal_tree(instance, edges)


def _metric_closure_steiner(instance: Instance) -> list[int]:
    """KMB-style heuristic: MST over the terminal metric closure, expanded."""
    terms = sorted(instance.terminals)
    if len(terms) == 1:
        return []
    dists = {}
    preds = {}
    for t in terms:
        dists[t] = [None] * instance.node_count
        dists[t][t] = 0
        preds[t] = _grow(instance, dists[t])
    # Kruskal over terminal pairs
    pairs = []
    for a, b in combinations(terms, 2):
        if dists[a][b] is None:
            raise SolverError("terminals are disconnected")
        pairs.append((dists[a][b], a, b))
    pairs.sort(key=lambda x: (x[0], x[1], x[2]))
    uf = UnionFind(instance.node_count)
    union_edges: set[int] = set()
    for _, a, b in pairs:
        if uf.union(a, b):
            union_edges.update(_walk_path(instance, preds[a], a, b))
    return _terminal_tree(instance, union_edges)


def baseline_min_cost(instance: Instance, mode: str = "steiner") -> PowerTree:
    """Min-cost tree (MST / Dreyfus-Wagner / metric-closure) under the power objective.

    Steiner mode runs the exact Dreyfus-Wagner DP up to 12 terminals and the
    metric-closure heuristic above. In spanning mode and exact steiner mode
    the result is a per-instance 2-approximation for min-power via
    c(S) <= p(S) <= 2c(S).
    """
    if mode == "spanning":
        chosen = _kruskal(instance, range(len(instance.edges)))
        if len(chosen) != instance.node_count - 1:
            raise SolverError("required nodes are disconnected")
        return evaluate(instance, chosen)
    if mode != "steiner":
        raise SolverError(f"unknown mode {mode!r}")
    if len(instance.terminals) > 12:
        return evaluate(instance, _metric_closure_steiner(instance))
    return evaluate(instance, _dreyfus_wagner(instance))
