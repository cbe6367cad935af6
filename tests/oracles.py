"""Independent brute-force oracles used by the tests.

Each oracle deliberately avoids the implementation path it checks: paths by
simple-path enumeration, trees by acyclic-edge-subset enumeration, costs by
the same subset sweep, and tiny LPs by rational vertex enumeration. The
`*_reference` functions keep earlier implementations whose replacements
must give the same results, ties included. Every oracle computes on the
instance's Fraction costs, never on the scaled int weights the package's
solvers use, except `irr_solve_reference`, which keeps an earlier IRR loop
around the package's own layers, `exact_min_power_reference`, which keeps
the earlier branch-and-bound verbatim, `exact_min_power_first_reference`,
which keeps verbatim the later one that returns the first optimum it
reaches, `component_four_reference`, which keeps the earlier |Q| = 4
structure guessing verbatim on the package's path search,
`enumerate_columns_reference` and `solve_lp_reference`, which keep the
column list of one `Component` per column (Q, s) and the LP that read it,
on the package's searches, simplex and flow network, and
`DualSimplexReference`, which keeps verbatim the simplex tableau that was
copied whole for every added row.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import combinations, compress, product
from math import ceil, comb, lcm
from operator import not_

import numpy as np

from powertree.analysis import AnalysisError, MarkedBinaryTree
from powertree.components import COLUMN_GUARD, Component, ComponentError, enumerate_columns
from powertree.decomposition import Decomposition
from powertree.exact import SolverError
from powertree.graph import UnionFind, connects, rooted_children, strip_leaves
from powertree.instance import Instance, PowerTree, edge_set_power, evaluate
from powertree.irr import IrrError, IterationRecord, RunTrace, prune, zero_power_tree_exists
from powertree.lp import _PIVOT_EPS, DEFAULT_TOL, LpError, LpState, _DualSimplex, _FlowNet, solve_lp
from powertree.pathpower import capped_state_search
from powertree.pruning import extract_tree
from powertree.trees import CostedTree, TreeError, validate_full_component


def edge_power_reference(instance: Instance, edge_ids) -> Fraction:
    """Power of an edge set: sum over touched nodes of max incident cost."""
    node_max: dict[int, Fraction] = {}
    for eid in edge_ids:
        u, v, c = instance.edges[eid]
        for node in (u, v):
            if node not in node_max or c > node_max[node]:
                node_max[node] = c
    return sum(node_max.values(), Fraction(0))


def min_power_path_bruteforce(instance: Instance, src: int, dst: int) -> Fraction | None:
    """Minimum power over all simple src-dst paths, by enumeration."""
    best: Fraction | None = None

    def rec(node: int, seen: frozenset[int], costs: list[Fraction]) -> None:
        nonlocal best
        if node == dst:
            p = costs[0] + sum(
                (max(costs[i], costs[i + 1]) for i in range(len(costs) - 1)),
                Fraction(0),
            ) + costs[-1]
            if best is None or p < best:
                best = p
            return
        for eid in instance.adjacency[node]:
            other = instance.other_end(eid, node)
            if other in seen:
                continue
            rec(other, seen | {other}, costs + [instance.cost(eid)])

    for eid in instance.adjacency[src]:
        other = instance.other_end(eid, src)
        rec(other, frozenset({src, other}), [instance.cost(eid)])
    return best


def min_power_tree_bruteforce(instance: Instance, required: frozenset[int]) -> Fraction | None:
    """Minimum power over all acyclic edge subsets connecting the required set.

    A depth-first search decides each edge in id order, excluding it and
    then including it; an edge that would close a cycle is never included,
    so every acyclic subset is reached exactly once and no cyclic one is.
    Costs are scaled to ints by the lcm of their denominators. The
    union-find (union by size, no compression) counts the required nodes
    per set and is undone on the way back.
    """
    if not required:
        return None
    scale = lcm(*(c.denominator for _, _, c in instance.edges))
    edges = [(u, v, int(c * scale)) for u, v, c in instance.edges]
    parent = list(range(instance.node_count))
    size = [1] * instance.node_count
    held = [int(x in required) for x in range(instance.node_count)]
    anchor = min(required)
    node_max = [0] * instance.node_count  # 0 also for an untouched node
    best: int | None = None

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def decide(i: int, power: int) -> None:
        nonlocal best
        if i == len(edges):
            if held[find(anchor)] == len(required) and (best is None or power < best):
                best = power
            return
        decide(i + 1, power)
        u, v, w = edges[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            return
        if size[ru] > size[rv]:
            ru, rv = rv, ru
        parent[ru] = rv
        size[rv] += size[ru]
        held[rv] += held[ru]
        mu, mv = node_max[u], node_max[v]
        node_max[u] = max(mu, w)
        node_max[v] = max(mv, w)
        decide(i + 1, power + node_max[u] - mu + node_max[v] - mv)
        node_max[u], node_max[v] = mu, mv
        held[rv] -= held[ru]
        size[rv] -= size[ru]
        parent[ru] = ru

    decide(0, 0)
    return None if best is None else Fraction(best, scale)


def min_cost_tree_bruteforce(instance: Instance, required: frozenset[int]) -> Fraction | None:
    """Minimum cost over all acyclic edge subsets connecting the required set."""
    m = len(instance.edges)
    best: Fraction | None = None
    for mask in range(1 << m):
        ids = [e for e in range(m) if mask >> e & 1]
        parent = list(range(instance.node_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        cost = Fraction(0)
        for e in ids:
            u, v, c = instance.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
            cost += c
        if not acyclic:
            continue
        if len({find(t) for t in required}) != 1:
            continue
        if best is None or cost < best:
            best = cost
    return best


def lp_vertex_enumeration(
    row_supports: list[list[int]],
    n_cols: int,
    objective: list[Fraction],
) -> Fraction | None:
    """Exact optimum of min c.x over {Ax >= 1, x >= 0} by vertex enumeration.

    Considers every choice of n_cols active constraints among the rows (as
    equalities) and the nonnegativity bounds, solves the rational linear
    system, and keeps the best feasible solution. Only for tiny LPs.
    """
    m = len(row_supports)
    rows = [[Fraction(1) if j in support else Fraction(0) for j in range(n_cols)]
            for support in row_supports]
    constraints = [(row, Fraction(1)) for row in rows]
    for j in range(n_cols):
        bound = [Fraction(0)] * n_cols
        bound[j] = Fraction(1)
        constraints.append((bound, Fraction(0)))
    best: Fraction | None = None
    for active in combinations(range(len(constraints)), n_cols):
        mat = [list(constraints[i][0]) for i in active]
        rhs = [constraints[i][1] for i in active]
        x = _solve_rational(mat, rhs)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(sum(r[j] * x[j] for j in range(n_cols)) < 1 for r in rows):
            continue
        value = sum((objective[j] * x[j] for j in range(n_cols)), Fraction(0))
        if best is None or value < best:
            best = value
    return best


def _solve_rational(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# reference tree extraction: the original per-step implementation, kept to
# check the shared graph primitives that replaced it


def _bridges_reference(adj: dict[int, list[tuple[int, int]]]) -> set[int]:
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


def strip_leaves_reference(instance: Instance, edge_ids, required) -> list[int]:
    """Drop the smallest-id edge at a non-required leaf until none is left."""
    edge_set = set(edge_ids)
    while True:
        deg: dict[int, int] = {}
        for eid in edge_set:
            u, v, _ = instance.edges[eid]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        removable = None
        for eid in sorted(edge_set):
            u, v, _ = instance.edges[eid]
            if (deg[u] == 1 and u not in required) or (deg[v] == 1 and v not in required):
                removable = eid
                break
        if removable is None:
            return sorted(edge_set)
        edge_set.remove(removable)


def extract_tree_reference(instance: Instance, edge_ids, required: frozenset[int]) -> list[int]:
    """Greedy non-bridge deletion with a DFS acyclicity test before every
    step, then leaf stripping."""
    current = set(edge_ids)

    def adjacency() -> dict[int, list[tuple[int, int]]]:
        adj: dict[int, list[tuple[int, int]]] = {}
        for eid in sorted(current):
            u, v, _ = instance.edges[eid]
            adj.setdefault(u, []).append((v, eid))
            adj.setdefault(v, []).append((u, eid))
        return adj

    adj = adjacency()
    if required:
        start = next(iter(required))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for other, _ in adj.get(node, ()):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if not required <= seen:
            raise ValueError("edge set does not connect the required nodes")

    while True:
        adj = adjacency()
        comps = 0
        seen = set()
        for node in adj:
            if node in seen:
                continue
            comps += 1
            stack = [node]
            seen.add(node)
            while stack:
                cur = stack.pop()
                for other, _ in adj[cur]:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        if len(current) == len(adj) - comps:
            break
        bridge_ids = _bridges_reference(adj)
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
                    delta -= node_max[node] - (max(rest) if rest else Fraction(0))
            if best is None or (delta, eid) < best:
                best = (delta, eid)
        current.remove(best[1])
    return strip_leaves_reference(instance, current, required)


# ---------------------------------------------------------------------------
# reference Dreyfus-Wagner: the original all-pairs implementation, kept to
# check the one multi-source grow step that replaced its two Dijkstras


def _dijkstra_cost_reference(instance: Instance, source: int) -> tuple[list[Fraction | None], list[int | None]]:
    dist: list[Fraction | None] = [None] * instance.node_count
    pred_edge: list[int | None] = [None] * instance.node_count
    dist[source] = Fraction(0)
    heap: list[tuple[Fraction, int]] = [(Fraction(0), source)]
    done = [False] * instance.node_count
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for eid in instance.adjacency[node]:
            other = instance.other_end(eid, node)
            nd = d + instance.cost(eid)
            if dist[other] is None or nd < dist[other]:
                dist[other] = nd
                pred_edge[other] = eid
                heapq.heappush(heap, (nd, other))
    return dist, pred_edge


def dreyfus_wagner_reference(instance: Instance) -> list[int]:
    """Min-cost Steiner tree edges: all-pairs Dijkstra tables for the
    singleton subsets, then merge and grow steps per terminal subset, then
    the same cheapest-forest-and-strip finish as the package."""
    terms = sorted(instance.terminals)
    k = len(terms)
    if k == 1:
        return []
    n = instance.node_count
    dist = []
    preds = []
    for s in range(n):
        d, p = _dijkstra_cost_reference(instance, s)
        dist.append(d)
        preds.append(p)

    full = (1 << k) - 1
    dp: list[list[Fraction | None]] = [[None] * n for _ in range(1 << k)]
    choice: list[list[tuple | None]] = [[None] * n for _ in range(1 << k)]
    for i, t in enumerate(terms):
        for v in range(n):
            dp[1 << i][v] = dist[t][v]
            choice[1 << i][v] = ("leaf", t)

    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
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
                            choice[mask][v] = ("merge", sub)
            sub = (sub - 1) & mask
        heap = [(dp[mask][v], v) for v in range(n) if dp[mask][v] is not None]
        heapq.heapify(heap)
        settled = [False] * n
        while heap:
            d, v = heapq.heappop(heap)
            if settled[v] or dp[mask][v] != d:
                continue
            settled[v] = True
            for eid in instance.adjacency[v]:
                other = instance.other_end(eid, v)
                nd = d + instance.cost(eid)
                if dp[mask][other] is None or nd < dp[mask][other]:
                    dp[mask][other] = nd
                    choice[mask][other] = ("grow", v, eid)
                    heapq.heappush(heap, (nd, other))

    edges: set[int] = set()

    def reconstruct(mask: int, v: int) -> None:
        ch = choice[mask][v]
        if ch[0] == "leaf":
            node = v
            while node != ch[1]:
                eid = preds[ch[1]][node]
                edges.add(eid)
                node = instance.other_end(eid, node)
        elif ch[0] == "merge":
            reconstruct(ch[1], v)
            reconstruct(mask ^ ch[1], v)
        else:
            _, u, eid = ch
            edges.add(eid)
            reconstruct(mask, u)

    reconstruct(full, terms[0])
    uf = UnionFind(instance.node_count)
    forest = [eid for eid in sorted(edges, key=lambda e: (instance.cost(e), e))
              if uf.union(instance.edges[eid][0], instance.edges[eid][1])]
    return strip_leaves(instance.edges, forest, instance.terminals)


def exact_min_power_reference(instance: Instance, mode: str = "steiner", node_guard: int = 12) -> PowerTree:
    """Global minimum-power tree by exhaustive branch-and-bound, as the package
    solved it before it pruned tied optima; kept verbatim, scaled int weights
    included.

    mode="spanning" requires every node; mode="steiner" requires the terminal
    set. Ties are resolved deterministically (lexicographically smallest
    sorted edge-id list among the enumerated optima). The node guard bounds
    the default instance size; callers may raise it for structured instances
    at their own risk.
    """
    if mode not in ("steiner", "spanning"):
        raise SolverError(f"unknown mode {mode!r}")
    if instance.node_count > node_guard:
        raise SolverError(f"node count {instance.node_count} exceeds guard {node_guard}")
    required = frozenset(range(instance.node_count)) if mode == "spanning" else instance.terminals
    if not connects(instance.node_count, instance.edges, required):
        raise SolverError("required nodes are disconnected")

    edges, weights = instance.edges, instance.weights
    m = len(edges)
    root = instance.root

    # the first descent always takes the cheapest crossing edge (Prim's tree),
    # so the search finds its own upper bound before it has to prune
    best_power: int | None = None
    best_edges: tuple[int, ...] | None = None

    in_tree = [False] * instance.node_count
    in_tree[root] = True
    node_max: dict[int, int] = {root: 0}
    banned = [False] * m

    def lower_bound(power: int) -> int | None:
        extra = 0
        for t in required:
            if in_tree[t]:
                continue
            cheapest = None
            for eid in instance.adjacency[t]:
                if banned[eid]:
                    continue
                c = weights[eid]
                if cheapest is None or c < cheapest:
                    cheapest = c
            if cheapest is None:
                return None  # t has no usable edge at all
            extra += cheapest
        return power + extra

    def feasible() -> bool:
        return connects(instance.node_count, compress(edges, map(not_, banned)), required)

    order = sorted(range(m), key=lambda e: (weights[e], e))
    selected: list[int] = []

    def record(power: int) -> None:
        nonlocal best_power, best_edges
        cand = tuple(sorted(selected))
        if best_power is None or power < best_power or (
            power == best_power and (best_edges is None or cand < best_edges)
        ):
            best_power = power
            best_edges = cand

    def recurse(power: int, covered: int) -> None:
        if covered == len(required):
            record(power)
            return
        lb = lower_bound(power)
        if lb is None or (best_power is not None and lb > best_power):
            return
        pick = None
        for eid in order:
            if banned[eid]:
                continue
            u, v, _ = edges[eid]
            if in_tree[u] != in_tree[v]:
                pick = eid
                break
        if pick is None:
            return
        u, v, _ = edges[pick]
        c = weights[pick]
        inner, outer = (u, v) if in_tree[u] else (v, u)

        # include branch
        selected.append(pick)
        in_tree[outer] = True
        old_inner = node_max[inner]
        node_max[inner] = max(old_inner, c)
        node_max[outer] = c
        delta = (node_max[inner] - old_inner) + c
        recurse(power + delta, covered + (1 if outer in required else 0))
        del node_max[outer]
        node_max[inner] = old_inner
        in_tree[outer] = False
        selected.pop()

        # exclude branch
        banned[pick] = True
        if feasible():
            recurse(power, covered)
        banned[pick] = False

    recurse(0, 1 if root in required else 0)
    if best_edges is None:
        raise SolverError("no feasible tree found")
    return evaluate(instance, best_edges)


def exact_min_power_first_reference(instance: Instance, mode: str = "steiner", node_guard: int = 12) -> PowerTree:
    """The branch-and-bound that returns the first optimum it reaches, with its
    lower bound recomputed at every branch; kept verbatim.

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
    m = len(edges)
    root = instance.root

    # the first descent always takes the cheapest crossing edge (Prim's tree),
    # so the search finds its own upper bound before it has to prune
    best_power: int | None = None
    best_edges: tuple[int, ...] = ()

    in_tree = [False] * instance.node_count
    in_tree[root] = True
    node_max: dict[int, int] = {root: 0}
    banned = [False] * m

    def lower_bound(power: int) -> int:
        extra = 0
        for t in required:
            if in_tree[t]:
                continue
            cheapest = None
            for eid in adjacency[t]:
                if banned[eid]:
                    continue
                c = weights[eid]
                if cheapest is None or c < cheapest:
                    cheapest = c
            extra += cheapest
        return power + extra

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
                u, v, _ = edges[eid]
                y = v if u == x else u
                if in_tree[y]:
                    return True
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return required.isdisjoint(seen)

    order = sorted(range(m), key=lambda e: (weights[e], e))
    selected: list[int] = []

    def recurse(power: int, covered: int) -> None:
        nonlocal best_power, best_edges
        if covered == len(required):
            if best_power is None or power < best_power:
                best_power = power
                best_edges = tuple(selected)
            return
        if best_power is not None and lower_bound(power) >= best_power:
            return
        for pick in order:
            if banned[pick]:
                continue
            u, v, _ = edges[pick]
            if in_tree[u] != in_tree[v]:
                break
        c = weights[pick]
        inner, outer = (u, v) if in_tree[u] else (v, u)

        # include branch
        selected.append(pick)
        in_tree[outer] = True
        old_inner = node_max[inner]
        node_max[inner] = max(old_inner, c)
        node_max[outer] = c
        delta = (node_max[inner] - old_inner) + c
        recurse(power + delta, covered + (1 if outer in required else 0))
        del node_max[outer]
        node_max[inner] = old_inner
        in_tree[outer] = False
        selected.pop()

        # exclude branch
        banned[pick] = True
        if still_joined(outer):
            recurse(power, covered)
        banned[pick] = False

    recurse(0, 1)
    # zero-cost edges to non-required leaves tie with the tree without them
    return evaluate(instance, strip_leaves(edges, best_edges, required))


def capped_state_search_reference(
    instance: Instance,
    src: int,
    cap_src: Fraction,
    forbidden: frozenset[int] | None = None,
) -> dict[tuple[int, int], tuple[Fraction, int, tuple[int, ...], tuple[int, ...]]]:
    """The min-power state search on Fraction costs: best accrued power per
    state (node, entering edge id) from src, paying max(cap_src, first edge
    cost) first; ties prefer fewer edges, then the smallest node sequence."""
    best: dict[tuple[int, int], tuple[Fraction, int, tuple[int, ...], tuple[int, ...]]] = {}
    heap: list[tuple[Fraction, int, tuple[int, ...], tuple[int, ...], int, int]] = []

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
        c = instance.cost(eid)
        offer((other, eid), max(cap_src, c), 1, (src, other), (eid,))

    done: set[tuple[int, int]] = set()
    while heap:
        power, n_edges, nodes, edges, node, eid = heapq.heappop(heap)
        state = (node, eid)
        if state in done or best.get(state, ())[:3] != (power, n_edges, nodes):
            continue
        done.add(state)
        c_in = instance.cost(eid)
        for nxt in instance.adjacency[node]:
            other = instance.other_end(nxt, node)
            if other in nodes:
                continue
            if forbidden and other in forbidden:
                continue
            offer(
                (other, nxt),
                power + max(c_in, instance.cost(nxt)),
                n_edges + 1,
                nodes + (other,),
                edges + (nxt,),
            )
    return best


def component_three_reference(instance: Instance, Q: frozenset[int]) -> Component:
    """The spider search for |Q| = 3 with a separate two-leg loop for a
    terminal junction, and the tree's power recomputed from its edges."""
    def entering(q: int) -> dict[int, list[tuple[int, Fraction, tuple[int, ...]]]]:
        by_node: dict[int, list[tuple[int, Fraction, tuple[int, ...]]]] = {}
        for (node, eid), (power, _, _, edge_path) in capped_state_search_reference(instance, q, Fraction(0)).items():
            by_node.setdefault(node, []).append((eid, power, edge_path))
        for opts in by_node.values():
            opts.sort(key=lambda o: (o[1], o[0]))
        return by_node

    q_nodes = sorted(Q)
    enter = {q: entering(q) for q in q_nodes}

    best: tuple[Fraction, tuple[tuple[int, ...], ...]] | None = None
    for c in range(instance.node_count):
        if c in Q:
            legs = [q for q in q_nodes if q != c]
            options = [enter[q].get(c) for q in legs]
            if any(o is None for o in options):
                continue
            for e1, p1, path1 in options[0]:
                if best is not None and p1 >= best[0]:
                    break
                for e2, p2, path2 in options[1]:
                    if best is not None and p1 + p2 >= best[0]:
                        break
                    value = p1 + p2 + max(instance.cost(e1), instance.cost(e2))
                    if best is None or value < best[0]:
                        best = (value, (path1, path2))
        else:
            options = [enter[q].get(c) for q in q_nodes]
            if any(o is None for o in options):
                continue
            for e1, p1, path1 in options[0]:
                if best is not None and p1 >= best[0]:
                    break
                c1 = instance.cost(e1)
                for e2, p2, path2 in options[1]:
                    p12 = p1 + p2
                    if best is not None and p12 >= best[0]:
                        break
                    c12 = max(c1, instance.cost(e2))
                    for e3, p3, path3 in options[2]:
                        if best is not None and p12 + p3 >= best[0]:
                            break
                        value = p12 + p3 + max(c12, instance.cost(e3))
                        if best is None or value < best[0]:
                            best = (value, (path1, path2, path3))
    if best is None:
        raise ComponentError(f"terminals {sorted(Q)} cannot be connected")
    union: set[int] = set()
    for path in best[1]:
        union.update(path)
    tree = extract_tree_reference(instance, union, Q)
    power = edge_power_reference(instance, tree)
    return Component(Q, None, tuple(tree), power)


def _entering_reference(instance: Instance, searches: dict, q: int):
    """Terminal q's search states grouped by end node, each group a sorted list
    of leg options (accrued power, entering edge id, entering edge weight,
    edge path) in scaled units; computed once per q and kept in `searches`."""
    if q not in searches:
        weights = instance.weights
        states = capped_state_search(instance, q, 0)
        by_node: dict[int, list[tuple[int, int, int, tuple[int, ...]]]] = {}
        for (node, eid), (power, _, _, edge_path) in states.items():
            by_node.setdefault(node, []).append((power, eid, weights[eid], edge_path))
        for opts in by_node.values():
            opts.sort()
        searches[q] = by_node
    return searches[q]


_EMPTY_LEG_REFERENCE = [(0, None, 0, ())]


def _component_three_scaled_reference(instance: Instance, Q: frozenset[int], searches: dict) -> Component:
    """The |Q| = 3 spider on scaled weights, its tree pruned at once."""
    q_nodes = sorted(Q)
    enter = [_entering_reference(instance, searches, q) for q in q_nodes]

    best: tuple[int, tuple[tuple[int, ...], ...]] | None = None
    for c in range(instance.node_count):
        options = [_EMPTY_LEG_REFERENCE if q == c else by_node.get(c) for q, by_node in zip(q_nodes, enter)]
        if None in options:
            continue
        for p1, _, c1, path1 in options[0]:
            if best is not None and p1 >= best[0]:
                break
            for p2, _, c2, path2 in options[1]:
                p12 = p1 + p2
                if best is not None and p12 >= best[0]:
                    break
                c12 = max(c1, c2)
                for p3, _, c3, path3 in options[2]:
                    if best is not None and p12 + p3 >= best[0]:
                        break
                    value = p12 + p3 + max(c12, c3)
                    if best is None or value < best[0]:
                        best = (value, (path1, path2, path3))
    if best is None:
        raise ComponentError(f"terminals {sorted(Q)} cannot be connected")
    union: set[int] = set()
    for path in best[1]:
        union.update(path)
    edges = instance.edges
    touched = {node for e in union for node in edges[e][:2]}
    tree = strip_leaves(edges, union, Q) if len(union) == len(touched) - 1 else extract_tree(instance, union, Q)
    return Component(Q, None, tuple(tree), Fraction(best[0], instance.scale))


def _component_pair_scaled_reference(instance: Instance, Q: frozenset[int], searches: dict) -> Component:
    """|Q| = 2: the min-power path, ties by (accrued power, entering edge id)."""
    u, v = sorted(Q)
    best = None
    for power, _, weight, edge_path in _entering_reference(instance, searches, u).get(v, ()):
        total = power + weight
        if best is None or total < best[0]:
            best = (total, edge_path)
    if best is None:
        raise ComponentError(f"terminals {sorted(Q)} cannot be connected")
    return Component(Q, None, tuple(sorted(best[1])), Fraction(best[0], instance.scale))


# The |Q| = 4 structure guessing as it stood before its cycle test became an
# edge count, kept verbatim: each realization's edges are checked by a
# union-find copied per option.
def _labeled_trees_reference(size: int, min_degree_from: int):
    """Yield edge lists (index pairs) of labeled trees on `size` >= 2 nodes
    where every node index >= min_degree_from has degree >= 3 (Pruefer
    decoding)."""
    for seq in product(range(size), repeat=size - 2):
        degree = [1] * size
        for s in seq:
            degree[s] += 1
        if any(degree[i] < 3 for i in range(min_degree_from, size)):
            continue
        deg = list(degree)
        leaves = [i for i in range(size) if deg[i] == 1]
        heapq.heapify(leaves)
        edges = []
        for s in seq:
            leaf = heapq.heappop(leaves)
            edges.append((min(leaf, s), max(leaf, s)))
            deg[s] -= 1
            if deg[s] == 1:
                heapq.heappush(leaves, s)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        edges.append((min(u, v), max(u, v)))
        yield edges


class _PairRealizerReference:
    """Realization options for topology edges, shared across topologies of one
    (Q, A) choice. An option is (edge ids, standalone scaled power) for one
    concrete way to connect two topology nodes outside the other topology
    nodes."""

    def __init__(self, instance: Instance, topo_nodes: tuple[int, ...]):
        self.instance = instance
        self.topo = frozenset(topo_nodes)
        self._edge_lookup: dict[tuple[int, int], int] = {}
        for eid, (u, v, _) in enumerate(instance.edges):
            self._edge_lookup[(min(u, v), max(u, v))] = eid
        self._options: dict[tuple[int, int], list[tuple[tuple[int, ...], int]]] = {}
        self._capped_cache: dict[tuple[int, int], dict] = {}

    def _interior(self, src: int, cap: int) -> dict:
        """Boundary-capped interior search from src avoiding topology nodes,
        keyed by (end node, entering edge id)."""
        key = (src, cap)
        hit = self._capped_cache.get(key)
        if hit is None:
            hit = capped_state_search(self.instance, src, cap, self.topo)
            self._capped_cache[key] = hit
        return hit

    def options(self, a: int, b: int) -> list[tuple[tuple[int, ...], int]]:
        key = (min(a, b), max(a, b))
        hit = self._options.get(key)
        if hit is not None:
            return hit
        inst = self.instance
        weights = inst.weights
        found: dict[tuple[int, ...], int] = {}

        direct = self._edge_lookup.get(key)
        if direct is not None:
            found[(direct,)] = 2 * weights[direct]

        for ea in inst.adjacency[a]:
            a2 = inst.other_end(ea, a)
            if a2 in self.topo:
                continue
            cap_a = weights[ea]
            interiors = None
            for eb in inst.adjacency[b]:
                b2 = inst.other_end(eb, b)
                if b2 in self.topo:
                    continue
                cap_b = weights[eb]
                if a2 == b2:
                    ids = tuple(sorted((ea, eb)))
                    found.setdefault(ids, edge_set_power(inst.scaled_edges(ids)))
                    continue
                if interiors is None:
                    interiors = self._interior(a2, cap_a)
                best_val = None
                best_edges = None
                for (node, eid), (power, _, _, path_edges) in interiors.items():
                    if node != b2 or eid == eb:
                        continue
                    total = power + max(weights[eid], cap_b)
                    if best_val is None or total < best_val or (
                        total == best_val and path_edges < best_edges
                    ):
                        best_val = total
                        best_edges = path_edges
                if best_edges is not None:
                    ids = tuple(sorted((ea, eb) + best_edges))
                    found.setdefault(ids, edge_set_power(inst.scaled_edges(ids)))

        result = sorted(found.items(), key=lambda kv: (kv[1], kv[0]))
        self._options[key] = result
        return result


def _find_reference(par: dict[int, int], x: int) -> int:
    while par.setdefault(x, x) != x:
        x = par[x]
    return x


def _assemble_reference(
    instance: Instance,
    topo_nodes: tuple[int, ...],
    topo_edges: list[tuple[int, int]],
    realizer: _PairRealizerReference,
    threshold: int | None,
) -> tuple[int, tuple[int, ...]] | None:
    """Pick one realization per topology edge, minimizing the power of the
    union edge set; unions with cycles are discarded. Branches whose partial
    power already exceeds `threshold` are cut (power grows monotonically)."""
    per_edge = []
    for i, j in topo_edges:
        opts = realizer.options(topo_nodes[i], topo_nodes[j])
        if not opts:
            return None
        per_edge.append(opts)

    edges_info, weights = instance.edges, instance.weights
    best: tuple[int, tuple[int, ...]] | None = None
    chosen: set[int] = set()
    node_max: dict[int, int] = {}

    def place(level: int, power: int, parent: dict[int, int]) -> None:
        nonlocal best
        cap = best[0] if best is not None else threshold
        if cap is not None and power > cap:
            return
        if level == len(per_edge):
            cand = tuple(sorted(chosen))
            if best is None or power < best[0] or (power == best[0] and cand < best[1]):
                best = (power, cand)
            return
        for ids, _ in per_edge[level]:
            # realizations may share edges; only new edges can close a cycle
            new_ids = [e for e in ids if e not in chosen]
            par = dict(parent)
            ok = True
            delta = 0
            touched: list[tuple[int, int | None]] = []
            for e in new_ids:
                u, v, _ = edges_info[e]
                c = weights[e]
                ru, rv = _find_reference(par, u), _find_reference(par, v)
                if ru == rv:
                    ok = False
                    break
                par[ru] = rv
                for node in (u, v):
                    cur = node_max.get(node)
                    if cur is None or c > cur:
                        touched.append((node, cur))
                        node_max[node] = c
                        delta += c - (cur if cur is not None else 0)
            if ok:
                chosen.update(new_ids)
                place(level + 1, power + delta, par)
                chosen.difference_update(new_ids)
            for node, prev in reversed(touched):
                if prev is None:
                    del node_max[node]
                else:
                    node_max[node] = prev

    place(0, 0, {})
    return best
def _component_four_reference(instance: Instance, q_nodes: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...]]] | None:
    """|Q| = 4 by structure guessing: the least (scaled power, sorted edges),
    the edges as the one leg; None if Q cannot be connected."""
    nonterms = [x for x in range(instance.node_count) if x not in q_nodes]
    best: tuple[int, tuple[int, ...]] | None = None
    for a_size in range(0, len(q_nodes) - 1):
        # the topologies depend only on |A|: decode them once per size
        topologies = list(_labeled_trees_reference(len(q_nodes) + a_size, len(q_nodes)))
        for A in combinations(nonterms, a_size):
            topo_nodes = q_nodes + A
            realizer = _PairRealizerReference(instance, topo_nodes)
            for topo_edges in topologies:
                got = _assemble_reference(
                    instance, topo_nodes, topo_edges, realizer,
                    None if best is None else best[0],
                )
                if got is None:
                    continue
                if best is None or got[0] < best[0] or (got[0] == best[0] and got[1] < best[1]):
                    best = got
    return None if best is None else (best[0], (best[1],))


def component_four_reference(instance: Instance, Q: frozenset[int]) -> Component:
    """|Q| = 4 by the structure guessing above, its edges sorted."""
    best = _component_four_reference(instance, tuple(sorted(Q)))
    if best is None:
        raise ComponentError(f"terminals {sorted(Q)} cannot be connected")
    return Component(Q, None, tuple(sorted(best[1][0])), Fraction(best[0], instance.scale))


def enumerate_columns_reference(instance: Instance, k: int) -> list[Component]:
    """The column enumeration that built one Component per column (Q, s),
    every tree pruned up front; kept verbatim on the package's searches."""
    if not 2 <= k <= 4:
        raise ComponentError(f"k must be in [2, 4], got {k}")
    terms = sorted(instance.terminals)
    r = len(terms)
    count = sum(comb(r, j) * j for j in range(2, min(k, r) + 1))
    if count > COLUMN_GUARD:
        raise ComponentError(f"column count {count} exceeds guard {COLUMN_GUARD}")
    searches: dict = {}
    columns: list[Component] = []
    for size in range(2, min(k, r) + 1):
        for subset in combinations(terms, size):
            Q = frozenset(subset)
            try:
                if size == 2:
                    comp = _component_pair_scaled_reference(instance, Q, searches)
                elif size == 3:
                    comp = _component_three_scaled_reference(instance, Q, searches)
                else:
                    comp = component_four_reference(instance, Q)
            except ComponentError:
                continue
            columns.extend(Component(Q, s, comp.edges, comp.power) for s in subset)
    return columns


def all_cut_rows(instance: Instance):
    """Every cut row W of the LP: each nonempty set of non-root terminals."""
    others = [t for t in sorted(instance.terminals) if t != instance.root]
    for r in range(1, len(others) + 1):
        for sub in combinations(others, r):
            yield frozenset(sub)


def row_support_reference(columns: list[Component], cut: frozenset[int]) -> list[int]:
    """Column indices entering the cut row for W: sink outside W, Q meets W."""
    return [
        j for j, col in enumerate(columns)
        if col.sink not in cut and col.terminal_set & cut
    ]


def separate_reference(instance: Instance, columns: list[Component], x: dict[int, float],
                       tol: float = DEFAULT_TOL) -> frozenset[int] | None:
    """Max-flow separation over a list of Components, on the package's flow
    network."""
    terms = sorted(instance.terminals)
    index = {t: i for i, t in enumerate(terms)}
    live = [j for j in sorted(x) if x[j] > 0.0]
    net = _FlowNet(len(terms) + len(live))
    inf = sum(x.values()) + 1.0
    for gadget, j in enumerate(live, len(terms)):
        col = columns[j]
        net.add(gadget, index[col.sink], x[j])
        for q in col.terminal_set:
            if q != col.sink:
                net.add(index[q], gadget, inf)
    cap0 = list(net.cap)

    root = index[instance.root]
    worst: tuple[float, int, set[int]] | None = None
    for t in terms:
        if t == instance.root:
            continue
        flow = net.max_flow(index[t], root, cap0, float("inf"))  # always to completion
        if flow < 1.0 - tol and (worst is None or flow < worst[0]):
            worst = (flow, t, net.reachable(index[t]))
    if worst is None:
        return None
    reachable = worst[2]
    return frozenset(t for t in terms if index[t] in reachable)


class DualSimplexReference:
    """The package's dual simplex tableau as it was when each row copied the
    whole tableau; kept verbatim as the oracle for the tableau that grows by
    doubling its room.

    Dual simplex tableau of min c.x over {x >= 0, A x >= 1}, kept across rows.

    Each row i of A is stored as -A_i x + s_i = -1 with its surplus s_i, so
    the surplus basis is dual feasible (every cost is >= 0) and needs no
    phase 1; a row appended later keeps the basis dual feasible, so pivoting
    resumes where it stopped. Row 0 holds the reduced costs of c / max(c),
    which makes the pivots independent of the cost scale; row 1 + i holds
    constraint i. Column 0 is the right-hand side, column 1 + j is x_j and
    column 1 + n + i is s_i.
    """

    def __init__(self, objective: list[float]):
        self.objective = objective
        self.n = len(objective)
        self.tableau = np.zeros((1, 1 + self.n))
        self.tableau[0, 1:] = objective
        scale = max(objective, default=0.0)
        if scale > 0.0:
            self.tableau[0, 1:] /= scale
        self.basis = np.zeros(0, dtype=np.intp)  # tableau column basic in row 1 + i

    def add_row(self, support: list[int]) -> None:
        """Append the row sum_{j in support} x_j >= 1 with its surplus basic."""
        m, width = self.tableau.shape
        t = np.zeros((m + 1, width + 1))
        t[:m, :width] = self.tableau
        row = t[m]
        row[0] = -1.0
        row[1 + np.asarray(support, dtype=np.intp)] = -1.0
        row[width] = 1.0
        row -= row[self.basis] @ t[1:m]  # zero the entries under basic columns
        self.tableau = t
        self.basis = np.append(self.basis, width)

    def solve(self) -> tuple[dict[int, float], float]:
        """Pivot until every row is feasible; return the basic x and its value.

        Bland's rule for the dual: the infeasible row with the smallest basic
        index leaves, and the minimum-ratio column enters, ties going to the
        smallest index. Deterministic and cycle-free.
        """
        t, basis = self.tableau, self.basis
        while True:
            rows = np.flatnonzero(t[1:, 0] < -_PIVOT_EPS)
            if rows.size == 0:
                break
            r = 1 + rows[np.argmin(basis[rows])]
            cols = 1 + np.flatnonzero(t[r, 1:] < -_PIVOT_EPS)
            if cols.size == 0:
                raise LpError("infeasible: no fractional solution covers every cut row")
            enter = cols[np.argmin(t[0, cols] / -t[r, cols])]
            t[r] /= t[r, enter]
            col = t[:, enter].copy()
            col[r] = 0.0
            t -= np.outer(col, t[r])
            basis[r - 1] = enter
        x = {}
        for i, b in enumerate(basis):
            # keep even tiny masses: truncation here would leak into the
            # separation oracle as spurious row violations
            if b <= self.n and t[1 + i, 0] > 0.0:
                x[int(b) - 1] = float(t[1 + i, 0])
        value = sum(self.objective[j] * xv for j, xv in x.items())
        return x, value


def solve_lp_reference(instance: Instance, columns: list[Component], tol: float = DEFAULT_TOL) -> LpState:
    """The cutting-plane loop over a list of Components, each price
    `float(col.power)`, on the package's dual simplex tableau."""
    terms = sorted(instance.terminals)
    others = [t for t in terms if t != instance.root]
    rows: list[frozenset[int]] = [frozenset({t}) for t in others]
    if not rows:
        return LpState(list(columns), [], {}, 0.0)
    supports = [row_support_reference(columns, w) for w in rows]
    for t, support in zip(others, supports):
        if not support:
            raise LpError(f"infeasible: terminal {t} has no covering column")
    lp = _DualSimplex([float(col.power) for col in columns])
    for support in supports:
        lp.add_row(support)
    history: list[float] = []
    while True:
        x, value = lp.solve()
        history.append(value)
        cut = separate_reference(instance, columns, x, tol)
        if cut is None:
            return LpState(list(columns), list(rows), x, value, tuple(history))
        assert cut not in rows
        rows.append(cut)
        lp.add_row(row_support_reference(columns, cut))


def irr_solve_reference(instance: Instance, k: int, seed: int, max_iters: int | None = None):
    """The IRR loop that recomputed the columns and the LP after every
    draw, zeroing an edge or not; it calls the package's own column, LP and
    pruning layers, so it checks only the loop around them."""
    if max_iters is None:
        max_iters = max(1, 50 * len(instance.edges))
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = random.Random(seed)
    trace = RunTrace(seed=seed)
    costs = [c for _, _, c in instance.edges]
    current = instance

    for iteration in range(1, max_iters + 1):
        columns = enumerate_columns(current, k)
        if columns:
            state = solve_lp(current, columns)
            total_mass = state.column_mass()
            draw = rng.random()
            target = draw * total_mass
            pick = None
            acc = 0.0
            for j in range(len(columns)):
                xv = state.x.get(j, 0.0)
                if xv <= 0.0:
                    continue
                acc += xv
                pick = j
                if target < acc:
                    break
            if pick is None:
                raise IrrError("no sampleable column (zero LP mass)", trace)
            comp = columns[pick]
            new_zeros = sum(1 for e in comp.edges if current.weights[e])
            for e in comp.edges:
                costs[e] = 0
            trace.records.append(IterationRecord(
                iteration, state.objective, tuple(sorted(comp.terminal_set)),
                comp.sink, comp.power, new_zeros,
            ))
            current = instance.with_costs(costs)
        else:
            trace.records.append(IterationRecord(iteration, 0.0, None, None, None, 0))
        if zero_power_tree_exists(current):
            return prune(instance, [e for e, w in enumerate(current.weights) if not w]), trace
    raise IrrError(f"iteration cap {max_iters} reached without a zero-power tree", trace)


def node_powers_reference(instance: Instance, edge_ids) -> dict[int, Fraction]:
    """The per-node powers `evaluate` used to store in every `PowerTree`."""
    node_powers: dict[int, Fraction] = {}
    for eid in edge_ids:
        u, v, c = instance.edges[eid]
        for node in (u, v):
            cur = node_powers.get(node)
            if cur is None or c > cur:
                node_powers[node] = c
    if not edge_ids and len(instance.terminals) == 1:
        node_powers = {next(iter(instance.terminals)): Fraction(0)}
    return node_powers


def _path_keys_reference(sbin, a: int, b: int) -> tuple[int, ...]:
    """Bin edges (child keys) on the binarized tree's path between two nodes."""
    x = a
    depth_a = sbin.levels[a]
    depth_b = sbin.levels[b]
    ka: list[int] = []
    kb: list[int] = []
    while depth_a > depth_b:
        ka.append(x)
        x = sbin.parent[x]
        depth_a -= 1
    y = b
    while depth_b > depth_a:
        kb.append(y)
        y = sbin.parent[y]
        depth_b -= 1
    while x != y:
        ka.append(x)
        kb.append(y)
        x = sbin.parent[x]
        y = sbin.parent[y]
    return tuple(ka + kb[::-1])


def witness_reference(sbin, marks: frozenset[int]):
    """Witness tree T* and witness sets from the all-pairs definition: every
    terminal pair whose bin path holds exactly one mark is a T* edge, and
    each bin edge on that path witnesses it. Returns (witness_edges,
    witness_map) in the form of `WitnessStructure`."""
    terms = sorted(sbin.terminals)
    pair_paths = {
        (a, b): _path_keys_reference(sbin, a, b)
        for i, a in enumerate(terms)
        for b in terms[i + 1:]
    }
    witness_edges = []
    witness_map: dict[int, set[tuple[int, int]]] = {key: set() for key in sbin.parent}
    for pair, keys in pair_paths.items():
        marked = sum(1 for k in keys if k in marks)
        if marked == 1:
            witness_edges.append(pair)
            for k in keys:
                witness_map[k].add(pair)
    return tuple(witness_edges), {k: frozenset(v) for k, v in witness_map.items()}


# ---------------------------------------------------------------------------
# decomposition and binarization as they were before one chain helper served
# both and the bounded-degree split rooted each component once; kept verbatim
# apart from the names, as the reference for the current code



def build_binary_tree_reference(tree: CostedTree) -> MarkedBinaryTree:
    """Split one edge (smallest index), root there, binarize with cost-0
    dummy chains placing the most expensive child edges on the highest
    consecutive levels, then shortcut single-child nodes.
    """
    validate_full_component(tree)
    if len(tree.terminals) < 2:
        raise AnalysisError("binarization needs at least 2 terminals")
    next_id = max(tree.nodes) + 1
    root = next_id
    next_id += 1
    u0, v0, c0 = tree.edges[0]
    a0, b0 = (u0, v0) if u0 < v0 else (v0, u0)

    parent: dict[int, int] = {root: -1, a0: root, b0: root}
    children: dict[int, list[int]] = {root: [a0, b0]}
    edge_origs: dict[int, tuple[int, ...]] = {a0: (0,), b0: (0,)}
    edge_cost: dict[int, Fraction] = {a0: c0, b0: c0}
    dummy: set[int] = set()

    # rooted child lists on the original tree, split at edge 0
    raw_children = rooted_children(tree.edges, a0)
    raw_children[a0] = [(other, idx) for other, idx in raw_children[a0] if idx != 0]

    def attach(p: int, child: int, origs: tuple[int, ...], cost: Fraction, is_dummy: bool) -> None:
        parent[child] = p
        children.setdefault(p, []).append(child)
        edge_origs[child] = origs
        edge_cost[child] = cost
        if is_dummy:
            dummy.add(child)

    def binarize(node: int) -> None:
        nonlocal next_id
        kids = raw_children[node]
        if len(kids) <= 2:
            for other, idx in kids:
                attach(node, other, (idx,), tree.edges[idx][2], False)
                binarize(other)
            return
        # chain: most expensive child edge highest, ties to smallest index
        ordered = sorted(kids, key=lambda ki: (-tree.edges[ki[1]][2], ki[1]))
        holder = node
        for pos, (other, idx) in enumerate(ordered):
            if pos < len(ordered) - 2:
                attach(holder, other, (idx,), tree.edges[idx][2], False)
                w = next_id
                next_id += 1
                attach(holder, w, (), Fraction(0), True)
                holder = w
            else:
                attach(holder, other, (idx,), tree.edges[idx][2], False)
        for other, _ in kids:
            binarize(other)

    children.setdefault(a0, [])
    children.setdefault(b0, [])
    binarize(a0)
    binarize(b0)

    # shortcut single-child nodes (the root keeps both halves); a splice
    # changes no other node's child count, so one pass finds them all, and
    # none is a dummy, since every dummy holder gets two children
    for node in list(children):
        kids = children[node]
        if node != root and len(kids) == 1:
            child = kids[0]
            p = parent.pop(node)
            children[p] = [child if x == node else x for x in children[p]]
            parent[child] = p
            edge_origs[child] = edge_origs.pop(node) + edge_origs[child]
            edge_cost[child] = max(edge_cost.pop(node), edge_cost[child])
            del children[node]

    levels = {root: 0}
    queue = [root]
    while queue:
        node = queue.pop()
        for ch in children.get(node, ()):  # children order preserved
            levels[ch] = levels[node] + 1
            queue.append(ch)

    orig_to_bin: dict[int, int] = {}
    for child, origs in edge_origs.items():
        for o in origs:
            if o == 0 and child == b0:
                continue  # the split edge maps to its first half
            orig_to_bin[o] = child
    orig_to_bin.setdefault(0, a0)

    bad = [n for n, ch in children.items() if len(ch) not in (0, 2)]
    if bad:
        raise AnalysisError(f"internal error: non-binary nodes {bad}")
    return MarkedBinaryTree(
        source=tree,
        root=root,
        parent={k: v for k, v in parent.items() if k != root},
        children={k: tuple(v) for k, v in children.items()},
        edge_origs=edge_origs,
        edge_cost=edge_cost,
        dummy_edges=frozenset(dummy),
        levels=levels,
        terminals=tree.terminals,
        orig_to_bin=orig_to_bin,
    )


def _downward_reference(edges, children) -> dict[int, EdgeT]:
    """Each edge of a rooted tree, by id, oriented from parent to child."""
    return {eid: (x, y, edges[eid][2]) for x, kids in children.items() for y, eid in kids}


def _descent_reference(children, cost, start: int, in_cost: Fraction):
    """Min-power continuation of a root-to-leaf path entering `start`.

    Returns (power paid from `start` downward, path edge ids); the caller
    adds the split node's own payment.
    """
    kids = children[start]
    if not kids:
        return in_cost, ()
    best = None
    for w, eid in kids:
        sub_val, sub_ids = _descent_reference(children, cost, w, cost[eid])
        val = max(in_cost, cost[eid]) + sub_val
        if best is None or val < best[0]:
            best = (val, (eid,) + sub_ids)
    return best


def bounded_degree_decompose_reference(tree: CostedTree, delta: int) -> Decomposition:
    """Split a full component into parts of maximum degree at most delta.

    Per split: pick the smallest-id node of degree > delta whose descendants
    all satisfy the cap, group its children (ascending edge cost) into blocks
    of ceil(delta/2), cut each block with its descendants into a new part,
    and reconnect by appending to each next part the leaf path minimizing
    p(P_j) - c(vu_j) over the previous block.
    """
    if delta < 3:
        raise TreeError(f"delta must be >= 3, got {delta}")
    validate_full_component(tree)
    root = min(tree.leaves())
    delta_prime = ceil(delta / 2)

    parts: list[list[EdgeT]] = []
    current: list[EdgeT] = list(tree.edges)

    while True:
        children = rooted_children(current, root)
        degree = {node: len(kids) + (node != root) for node, kids in children.items()}
        if max(degree.values()) <= delta:
            break
        # smallest-id split node: degree > delta, all strict descendants within cap
        split = None
        for v in sorted(children):
            if degree[v] < delta + 1:
                continue
            ok = True
            stack = [w for w, _ in children[v]]
            while stack:
                x = stack.pop()
                if degree[x] > delta:
                    ok = False
                    break
                stack.extend(w for w, _ in children[x])
            if ok:
                split = v
                break
        if split is None:
            raise TreeError("internal error: no split node despite degree violation")

        cost = [c for _, _, c in current]
        down = _downward_reference(current, children)
        kids = sorted(children[split], key=lambda we: (cost[we[1]], we[0]))
        blocks: list[list[tuple[int, int]]] = []
        rest = kids
        while len(rest) > delta - 2:
            blocks.append(rest[:delta_prime])
            rest = rest[delta_prime:]
        # rest is the root-side block V_h and stays in the root component

        # parts as {edge id: edge}: insertion keeps the edge order, keys dedupe
        new_parts: list[dict[int, EdgeT]] = []
        for block in blocks:
            part = {}
            for w, eid in block:
                part[eid] = down[eid]
                stack = [w]
                while stack:
                    x = stack.pop()
                    for y, e in children[x]:
                        part[e] = down[e]
                        stack.append(y)
            new_parts.append(part)
        removed = {eid for part in new_parts for eid in part}
        root_part = {eid: e for eid, e in enumerate(current) if eid not in removed}

        # the appended path reconnects consecutive parts in the component graph
        for i, block in enumerate(blocks):
            descents = [_descent_reference(children, cost, w, cost[eid]) for w, eid in block]
            j = min(range(len(block)), key=lambda k: descents[k][0])
            target = new_parts[i + 1] if i + 1 < len(new_parts) else root_part
            for eid in (block[j][1],) + descents[j][1]:
                target.setdefault(eid, down[eid])
        parts.extend(list(part.values()) for part in new_parts)
        current = list(root_part.values())

    parts.append(current)
    part_trees = tuple(CostedTree.induced(p, tree.terminals) for p in parts)
    total = sum((p.power() for p in part_trees), Fraction(0))
    return Decomposition(part_trees, tree, total)


def level_cut_parts_reference(tree: CostedTree, h: int, q: int) -> list[CostedTree]:
    """Cut a full component at marked levels into parts, reconnecting each cut
    node through its rightmost-then-leftmost descent path to a terminal.

    Levels are those of the contraction that shortcuts internal degree-2
    nodes (root excepted); left-to-right order is ascending node id. Exposed
    separately so small worked examples can exercise the construction even
    below the h^h size trigger.
    """
    if h < 3:
        raise TreeError(f"h must be >= 3, got {h}")
    if not 0 <= q < h:
        raise TreeError(f"q must be in [0, {h - 1}], got {q}")
    validate_full_component(tree)
    nonterms = [v for v in tree.nodes if v not in tree.terminals]
    if not nonterms:
        raise TreeError("no non-terminal to root the level cut at")
    root = min(nonterms)
    children = rooted_children(tree.edges, root)

    # contract degree-2 internal nodes (other than the root); paths hold edge ids
    cchildren: dict[int, list[tuple[int, list[int]]]] = {}
    clevel: dict[int, int] = {root: 0}
    cparent: dict[int, int | None] = {root: None}

    def contracted_children(x: int) -> list[tuple[int, list[int]]]:
        out = []
        for w, eid in children[x]:
            path = [eid]
            end = w
            while end not in tree.terminals and len(children[end]) == 1:
                end, eid = children[end][0]
                path.append(eid)
            out.append((end, path))
        return out

    stack = [root]
    while stack:
        x = stack.pop()
        kids = contracted_children(x)
        cchildren[x] = kids
        for end, _ in kids:
            clevel[end] = clevel[x] + 1
            cparent[end] = x
            stack.append(end)

    marked = {x for x, lev in clevel.items() if lev % h == q}

    # each contracted edge belongs to the subtree rooted at the nearest
    # marked ancestor (or the root) of its upper endpoint
    top_cache: dict[int, int] = {}

    def top(x: int) -> int:
        if x == root or x in marked:
            return x
        got = top_cache.get(x)
        if got is None:
            got = top(cparent[x])
            top_cache[x] = got
        return got

    groups: dict[int, list[tuple[int, int, list[int]]]] = {}
    for x in cchildren:
        for end, path in cchildren[x]:
            groups.setdefault(top(x), []).append((x, end, path))

    def descent_path(v: int) -> list[int]:
        # rightmost child, then leftmost descents to a leaf terminal
        kids = cchildren[v]
        end, path = max(kids, key=lambda kp: kp[0])
        out = list(path)
        node = end
        while cchildren.get(node):
            nend, npath = min(cchildren[node], key=lambda kp: kp[0])
            out.extend(npath)
            node = nend
        return out

    down = _downward_reference(tree.edges, children)
    parts: list[CostedTree] = []
    for w in sorted(groups):
        members = groups[w]
        ids = [eid for _, _, path in members for eid in path]
        for end in sorted({end for _, end, _ in members}):
            if end in marked and cchildren.get(end):
                ids.extend(descent_path(end))
        # dict.fromkeys drops repeated ids and keeps first-seen order
        parts.append(CostedTree.induced([down[eid] for eid in dict.fromkeys(ids)], tree.terminals))
    return parts
