"""Independent brute-force oracles used by the tests.

Each oracle deliberately avoids the implementation path it checks: paths by
simple-path enumeration, trees by acyclic-edge-subset enumeration, costs by
the same subset sweep, and tiny LPs by rational vertex enumeration. The
`*_reference` functions keep earlier implementations whose replacements
must give the same results, ties included. Every oracle computes on the
instance's Fraction costs, never on the scaled int weights the package's
solvers use, except `irr_solve_reference`, which keeps an earlier IRR loop
around the package's own layers.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import combinations

from powertree.components import Component, ComponentError, enumerate_columns
from powertree.graph import UnionFind, strip_leaves
from powertree.instance import Instance
from powertree.irr import IrrError, IterationRecord, RunTrace, prune, zero_power_tree_exists
from powertree.lp import solve_lp


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
    """Minimum power over all acyclic edge subsets connecting the required set."""
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
        for e in ids:
            u, v, _ = instance.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if not acyclic:
            continue
        if len({find(t) for t in required}) != 1:
            continue
        p = edge_power_reference(instance, ids)
        if best is None or p < best:
            best = p
    return best


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
