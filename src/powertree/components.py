"""Min-power components on small terminal sets and LP column enumeration.

A component on terminals Q is found by exhaustive structure guessing:
enumerate candidate branch nodes A (non-terminals of degree >= 3, at most
|Q|-2 of them), enumerate labeled tree topologies on Q union A, then realize
every topology edge by a boundary edge on each side joined through a
boundary-capped min-power path whose interior avoids all topology nodes.
Realizations whose union contains a cycle are discarded, not repaired.

Every search adds and compares the instance's scaled int weights; a
component's power becomes a Fraction once per terminal set, in `Component`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .graph import strip_leaves
from .instance import Instance, edge_set_power
from .pathpower import capped_state_search
from .pruning import extract_tree

COLUMN_GUARD = 50_000


class ComponentError(ValueError):
    """Raised on invalid component queries or the column-count guard."""


@dataclass(frozen=True)
class Component:
    """A tree on at most k terminals; the sink only orients it conceptually."""

    terminal_set: frozenset[int]
    sink: int | None
    edges: tuple[int, ...]
    power: Fraction


def _labeled_trees(size: int, min_degree_from: int):
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


class _PairRealizer:
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


def _find(par: dict[int, int], x: int) -> int:
    while par.setdefault(x, x) != x:
        x = par[x]
    return x


def _assemble(
    instance: Instance,
    topo_nodes: tuple[int, ...],
    topo_edges: list[tuple[int, int]],
    realizer: _PairRealizer,
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
                ru, rv = _find(par, u), _find(par, v)
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


def _entering(instance: Instance, searches: dict, q: int):
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


# a terminal junction's own leg: no edges, nothing accrued, nothing entering
_EMPTY_LEG = [(0, None, 0, ())]


def _component_three(instance: Instance, Q: frozenset[int], searches: dict) -> Component:
    """|Q| = 3 fast path: the optimal tree is a spider with one junction.

    Enumerate the junction node c and the legs' entering edges (a terminal
    junction's own leg is empty); the sum of per-leg accrued powers plus the
    junction's max equals the spider's power when legs are disjoint and
    upper-bounds a contained tree otherwise, so the minimum over candidates
    is exactly the optimum. The tree is recovered by pruning the argmin leg
    union, which never raises power, so its power is that minimum. The union
    is connected, so with one edge fewer than its nodes it is a tree already
    and only its non-terminal leaves need stripping.
    """
    q_nodes = sorted(Q)
    enter = [_entering(instance, searches, q) for q in q_nodes]

    best: tuple[int, tuple[tuple[int, ...], ...]] | None = None
    for c in range(instance.node_count):
        options = [_EMPTY_LEG if q == c else by_node.get(c) for q, by_node in zip(q_nodes, enter)]
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


def _component_pair(instance: Instance, Q: frozenset[int], searches: dict) -> Component:
    """|Q| = 2: the min-power path, ties by (accrued power, entering edge id)."""
    u, v = sorted(Q)
    best = None
    for power, _, weight, edge_path in _entering(instance, searches, u).get(v, ()):
        total = power + weight
        if best is None or total < best[0]:
            best = (total, edge_path)
    if best is None:
        raise ComponentError(f"terminals {sorted(Q)} cannot be connected")
    return Component(Q, None, tuple(sorted(best[1])), Fraction(best[0], instance.scale))


def min_power_component(instance: Instance, terminal_subset, k_cap: int = 4) -> Component:
    """Min-power tree spanning the terminal subset Q, |Q| <= k_cap <= 4."""
    Q = frozenset(terminal_subset)
    if not 1 <= k_cap <= 4:
        raise ComponentError(f"k_cap must be in [1, 4], got {k_cap}")
    if not Q:
        raise ComponentError("empty terminal subset")
    if not Q <= instance.terminals:
        raise ComponentError(f"nodes {sorted(Q - instance.terminals)} are not terminals")
    if len(Q) > k_cap:
        raise ComponentError(f"|Q|={len(Q)} exceeds k_cap={k_cap}")
    if len(Q) == 1:
        return Component(Q, None, (), Fraction(0))
    if len(Q) == 2:
        return _component_pair(instance, Q, {})
    if len(Q) == 3:
        return _component_three(instance, Q, {})

    q_nodes = tuple(sorted(Q))
    nonterms = [x for x in range(instance.node_count) if x not in Q]
    best: tuple[int, tuple[int, ...]] | None = None
    for a_size in range(0, len(Q) - 1):
        for A in combinations(nonterms, a_size):
            topo_nodes = q_nodes + A
            realizer = _PairRealizer(instance, topo_nodes)
            for topo_edges in _labeled_trees(len(topo_nodes), len(q_nodes)):
                got = _assemble(
                    instance, topo_nodes, topo_edges, realizer,
                    None if best is None else best[0],
                )
                if got is None:
                    continue
                if best is None or got[0] < best[0] or (got[0] == best[0] and got[1] < best[1]):
                    best = got
    if best is None:
        raise ComponentError(f"terminals {sorted(Q)} cannot be connected")
    return Component(Q, None, best[1], Fraction(best[0], instance.scale))


def enumerate_columns(instance: Instance, k: int) -> list[Component]:
    """All LP columns (Q, s) with 2 <= |Q| <= k, one Component per column.

    p_Q is computed once per Q and shared across its sink choices; terminal
    sets that cannot be connected are skipped. Guarded at 50,000 columns.
    """
    if not 2 <= k <= 4:
        raise ComponentError(f"k must be in [2, 4], got {k}")
    terms = sorted(instance.terminals)
    r = len(terms)
    count = sum(comb(r, j) * j for j in range(2, min(k, r) + 1))
    if count > COLUMN_GUARD:
        raise ComponentError(f"column count {count} exceeds guard {COLUMN_GUARD}")
    # the per-terminal state searches are Q-independent; share them
    searches: dict = {}
    columns: list[Component] = []
    for size in range(2, min(k, r) + 1):
        for subset in combinations(terms, size):
            Q = frozenset(subset)
            try:
                if size == 2:
                    comp = _component_pair(instance, Q, searches)
                elif size == 3:
                    comp = _component_three(instance, Q, searches)
                else:
                    comp = min_power_component(instance, Q, k_cap=k)
            except ComponentError:
                continue
            columns.extend(Component(Q, s, comp.edges, comp.power) for s in subset)
    return columns
