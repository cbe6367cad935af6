"""Min-power components on small terminal sets and LP column enumeration.

A component on terminals Q is found by exhaustive structure guessing:
enumerate candidate branch nodes A (non-terminals of degree >= 3, at most
|Q|-2 of them), enumerate labeled tree topologies on Q union A, then realize
every topology edge by a boundary edge on each side joined through a
boundary-capped min-power path whose interior avoids all topology nodes.
Realizations whose union contains a cycle are discarded, not repaired.
The topologies for |Q| = 4 are the edge sets that `graph.tree_fault`
accepts, built once per process, per |A|, on the first |Q| = 4 query
(`_topologies`), and kept as immutable tuples.

Every search adds and compares the instance's scaled int weights. The LP
columns are one `ColumnSet`, which keeps p_Q as a scaled int per terminal
set; a power becomes a Fraction only in a `Component` read from it.
`Instance` rejects disconnected terminals, so every terminal set connects
and the columns depend only on |R| and k: their structure is one `_Layout`
per (|R|, k), built on the first `enumerate_columns` call that needs it and
kept in a small bounded cache.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .graph import tree_fault
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


@cache
def _topologies(a_size: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The labeled trees on 4 terminals and `a_size` Steiner nodes of degree
    >= 3, as edge lists of index pairs (Steiner nodes are 4 and up): built
    on the first |Q| = 4 query of each size and kept for the process."""
    size = 4 + a_size
    return tuple(
        t for t in combinations(combinations(range(size), 2), size - 1)
        if all(sum(v in e for e in t) >= 3 for v in range(4, size)) and tree_fault(t, range(size)) is None
    )


class _PairRealizer:
    """Realization options for topology edges, shared across topologies of one
    (Q, A) choice. An option is (edge ids, standalone scaled power) for one
    concrete way to connect two topology nodes outside the other topology
    nodes."""

    def __init__(self, instance: Instance, topo_nodes: tuple[int, ...]):
        self.instance = instance
        self.topo = frozenset(topo_nodes)
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
        edges, weights = inst.edges, inst.weights
        found: dict[tuple[int, ...], int] = {}

        for ea in inst.adjacency[a]:
            u, v, _ = edges[ea]
            a2 = v if u == a else u
            if a2 in self.topo:
                if a2 == b:  # the direct edge
                    found[(ea,)] = 2 * weights[ea]
                continue
            cap_a = weights[ea]
            interiors = None
            for eb in inst.adjacency[b]:
                u, v, _ = edges[eb]
                b2 = v if u == b else u
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


def _assemble(
    instance: Instance,
    topo_nodes: tuple[int, ...],
    topo_edges: Sequence[tuple[int, int]],
    realizer: _PairRealizer,
    threshold: int | None,
) -> tuple[int, tuple[int, ...]] | None:
    """Pick one realization per topology edge, minimizing the power of the
    union edge set; unions with cycles are discarded. Branches whose partial
    power already exceeds `threshold` are cut (power grows monotonically).

    Every realization joins its two topology nodes, so a complete union is
    connected and has a cycle iff it has as many edges as nodes. A partial
    union with that many edges has a cycle too, which no extension loses,
    so the test also cuts branches early."""
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

    def place(level: int, power: int) -> None:
        nonlocal best
        cap = best[0] if best is not None else threshold
        if cap is not None and power > cap:
            return
        if chosen and len(chosen) >= len(node_max):  # node_max keys: the union's nodes
            return
        if level == len(per_edge):
            cand = tuple(sorted(chosen))
            if best is None or power < best[0] or (power == best[0] and cand < best[1]):
                best = (power, cand)
            return
        for ids, _ in per_edge[level]:
            # realizations may share edges: each edge joins the union once
            new_ids = [e for e in ids if e not in chosen]
            delta = 0
            touched: list[tuple[int, int | None]] = []
            for e in new_ids:
                u, v, _ = edges_info[e]
                c = weights[e]
                for node in (u, v):
                    cur = node_max.get(node)
                    if cur is None or c > cur:
                        touched.append((node, cur))
                        node_max[node] = c
                        delta += c - (cur if cur is not None else 0)
            chosen.update(new_ids)
            place(level + 1, power + delta)
            chosen.difference_update(new_ids)
            for node, prev in reversed(touched):
                if prev is None:
                    del node_max[node]
                else:
                    node_max[node] = prev

    place(0, 0)
    return best


def _entering(instance: Instance, q: int) -> list:
    """Terminal q's search states grouped by end node: one entry per node,
    None where no state ends, else a sorted list of leg options (accrued
    power, entering edge id, entering edge weight, edge path) in scaled
    units. q's own entry is the empty leg of a junction at q."""
    weights = instance.weights
    by_node: list = [None] * instance.node_count
    for (node, eid), (power, _, _, edge_path) in capped_state_search(instance, q, 0).items():
        opts = by_node[node]
        if opts is None:
            opts = by_node[node] = []
        opts.append((power, eid, weights[eid], edge_path))
    for opts in by_node:
        if opts is not None:
            opts.sort()
    by_node[q] = _EMPTY_LEG  # no state ends at q: a path never revisits its source
    return by_node


# a terminal junction's own leg: no edges, nothing accrued, nothing entering
_EMPTY_LEG = [(0, None, 0, ())]


def _spider(e1: list, e2: list, e3: list) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """|Q| = 3 from its terminals' `_entering` lists: the optimal tree is a
    spider with one junction.

    Enumerate the junction node c and the legs' entering edges (a terminal
    junction's own leg is empty); the sum of per-leg accrued powers plus the
    junction's max equals the spider's power when legs are disjoint and
    upper-bounds a contained tree otherwise, so the minimum over candidates
    is exactly the optimum. Returns that scaled power and the argmin's three
    edge paths, or None if Q cannot be connected; `_tree` prunes the legs'
    union to a tree of that power.
    """
    best: tuple[int, tuple[tuple[int, ...], ...]] | None = None
    for options1, options2, options3 in zip(e1, e2, e3):
        if options1 is None or options2 is None or options3 is None:
            continue
        for p1, _, c1, path1 in options1:
            if best is not None and p1 >= best[0]:
                break
            for p2, _, c2, path2 in options2:
                p12 = p1 + p2
                if best is not None and p12 >= best[0]:
                    break
                c12 = max(c1, c2)
                for p3, _, c3, path3 in options3:
                    if best is not None and p12 + p3 >= best[0]:
                        break
                    value = p12 + p3 + max(c12, c3)
                    if best is None or value < best[0]:
                        best = (value, (path1, path2, path3))
    return best


def _pair(eu: list, v: int) -> tuple[int, tuple[tuple[int, ...]]] | None:
    """|Q| = {u, v} from u's `_entering` list: the min-power path's scaled
    power and its edge path as the one leg, ties by (accrued power, entering
    edge id); None if u and v are disconnected."""
    best = None
    for power, _, weight, edge_path in eu[v] or ():
        total = power + weight
        if best is None or total < best[0]:
            best = (total, (edge_path,))
    return best


def _tree(instance: Instance, legs, Q: frozenset[int]) -> tuple[int, ...]:
    """A component's tree from its search result: the sorted edges of a
    single leg, or the union of a spider's three legs pruned to a tree,
    which never raises power (an acyclic union only loses its non-terminal
    leaves)."""
    if len(legs) == 1:
        return tuple(sorted(legs[0]))
    return tuple(extract_tree(instance, set().union(*legs), Q))


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
    q_nodes = tuple(sorted(Q))
    if len(Q) == 2:
        best = _pair(_entering(instance, q_nodes[0]), q_nodes[1])
    elif len(Q) == 3:
        best = _spider(*(_entering(instance, q) for q in q_nodes))
    else:
        best = _component_four(instance, q_nodes)
    if best is None:
        raise ComponentError(f"terminals {sorted(Q)} cannot be connected")
    return Component(Q, None, _tree(instance, best[1], Q), Fraction(best[0], instance.scale))


def _component_four(instance: Instance, q_nodes: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...]]] | None:
    """|Q| = 4 by structure guessing: the least (scaled power, sorted edges),
    the edges as the one leg; None if Q cannot be connected."""
    nonterms = [x for x in range(instance.node_count) if x not in q_nodes]
    best: tuple[int, tuple[int, ...]] | None = None
    for a_size in range(3):  # |A| <= |Q| - 2
        for A in combinations(nonterms, a_size):
            topo_nodes = q_nodes + A
            realizer = _PairRealizer(instance, topo_nodes)
            for topo_edges in _topologies(a_size):
                got = _assemble(
                    instance, topo_nodes, topo_edges, realizer,
                    None if best is None else best[0],
                )
                if got is None:
                    continue
                if best is None or got[0] < best[0] or (got[0] == best[0] and got[1] < best[1]):
                    best = got
    return None if best is None else (best[0], (best[1],))


# distinct (|R|, k) layouts kept at once; one near `COLUMN_GUARD` columns
# holds about 6 MB, so the cache stays small
_LAYOUTS = 8


@dataclass(frozen=True, eq=False)
class _Layout:
    """The columns (Q, s) with 2 <= |Q| <= k on |R| terminals, in
    terminal-index space: terminal a is the a-th smallest terminal.

    `members` holds each terminal set's indices in ascending order: the
    sets of 2, then 3, then 4 terminals, each size in `combinations` order.
    The columns of a set are consecutive, one per member as the sink. Per
    column, `owner` holds the index of its set, `sinks` the sink's index,
    `masks` the set's bitmask (bit a for terminal a) and `sink_bits` the
    sink's bit. `singletons[a]` lists the columns of the cut row for
    terminal a alone: the sets that hold a, with a sink other than a.
    """

    members: tuple[tuple[int, ...], ...]
    owner: tuple[int, ...]
    sinks: tuple[int, ...]
    masks: tuple[int, ...]
    sink_bits: tuple[int, ...]
    singletons: tuple[np.ndarray, ...]


@lru_cache(maxsize=_LAYOUTS)
def _layout(r: int, k: int) -> _Layout:
    """The column layout for `r` terminals and k, built on first use."""
    members = [m for size in range(2, k + 1) for m in combinations(range(r), size)]
    owner: list[int] = []
    sinks: list[int] = []
    masks: list[int] = []
    singletons: list[list[int]] = [[] for _ in range(r)]
    for i, m in enumerate(members):
        start = len(owner)
        owner += [i] * len(m)
        sinks += m
        masks += [sum(1 << a for a in m)] * len(m)
        for a in m:
            singletons[a] += [start + s for s, b in enumerate(m) if b != a]
    sink_bits = [1 << a for a in sinks]
    return _Layout(tuple(members), tuple(owner), tuple(sinks), tuple(masks), tuple(sink_bits),
                   tuple(np.array(support, dtype=np.intp) for support in singletons))


class ColumnSet(Sequence[Component]):
    """The LP columns (Q, s) with 2 <= |Q| <= k, held once per terminal set Q.

    The column structure is the `_Layout` for |R| and k, shared by every
    column set on as many terminals; a column set adds only its sorted
    terminals (`terms`), p_Q per terminal set in the instance's scaled units
    (`powers`; p_Q / `scale` is its cost) and what each tree is built from.
    Node ids are mapped in only where they are read: Q's members in sorted
    order (`members`), Q as a frozenset (`terminal_set(i)`) and a column's
    terminal set index and sink (`column(j)`). Per column, `owner` holds the
    index of its terminal set; for the cut rows, `masks` holds Q's terminal
    bitmask and `sink_bits` the sink's bit, and `bits` gives the i-th
    smallest terminal bit i. Q's tree is built when a column of Q is first
    read and then kept for every sink; until then a pair or a |Q| = 4
    component keeps its edges and a spider its three legs.
    """

    def __init__(self, instance: Instance, terms: tuple[int, ...], layout: _Layout,
                 powers: list[int], legs: list[tuple[tuple[int, ...], ...]]):
        self.instance = instance
        self.scale = instance.scale
        self.terms = terms
        self.layout = layout
        self.owner, self.masks, self.sink_bits = layout.owner, layout.masks, layout.sink_bits
        self.bits = {t: 1 << a for a, t in enumerate(terms)}
        self.powers = powers
        self._legs = legs
        self._trees: dict[int, tuple[int, ...]] = {}

    @cached_property
    def members(self) -> list[tuple[int, ...]]:
        terms = self.terms
        return [tuple(terms[a] for a in m) for m in self.layout.members]

    def mask(self, nodes) -> int:
        """Bitmask of the terminals among `nodes`."""
        bits = self.bits
        return sum(bits[t] for t in nodes if t in bits)

    def column(self, j: int) -> tuple[int, int]:
        """Column j as (index of its terminal set, sink)."""
        return self.owner[j], self.terms[self.layout.sinks[j]]

    def terminal_set(self, i: int) -> frozenset[int]:
        """Terminal set i as a frozenset of node ids."""
        terms = self.terms
        return frozenset([terms[a] for a in self.layout.members[i]])

    def tree(self, i: int) -> tuple[int, ...]:
        """Edges of terminal set i's tree, built on first read."""
        tree = self._trees.get(i)
        if tree is None:
            tree = self._trees[i] = _tree(self.instance, self._legs[i], self.terminal_set(i))
        return tree

    def __len__(self) -> int:
        return len(self.owner)

    def __getitem__(self, j: int) -> Component:
        """Column j as a `Component`, its tree built if Q's is not yet."""
        i, sink = self.column(j)
        return Component(self.terminal_set(i), sink, self.tree(i), Fraction(self.powers[i], self.scale))


def enumerate_columns(instance: Instance, k: int) -> ColumnSet:
    """All LP columns (Q, s) with 2 <= |Q| <= k, as one column set.

    `Instance` rejects disconnected terminals, so every terminal set
    connects and the columns are those of the shared `_Layout` for |R| and
    k. p_Q is computed once per Q and shared across its sink choices.
    Guarded at 50,000 columns.
    """
    if not 2 <= k <= 4:
        raise ComponentError(f"k must be in [2, 4], got {k}")
    terms = tuple(sorted(instance.terminals))
    r = len(terms)
    count = sum(comb(r, j) * j for j in range(2, min(k, r) + 1))
    if count > COLUMN_GUARD:
        raise ComponentError(f"column count {count} exceeds guard {COLUMN_GUARD}")
    layout = _layout(r, k)
    # the per-terminal state searches are Q-independent: one per terminal,
    # made when a terminal set first needs it
    enter: list = [None] * r
    powers: list[int] = []
    legs: list[tuple[tuple[int, ...], ...]] = []
    for m in layout.members:
        if len(m) == 2:
            a = m[0]
            if enter[a] is None:
                enter[a] = _entering(instance, terms[a])
            got = _pair(enter[a], terms[m[1]])
        elif len(m) == 3:
            if enter[-1] is None:  # the pairs made every other one
                enter[-1] = _entering(instance, terms[-1])
            got = _spider(*[enter[a] for a in m])
        else:
            comp = min_power_component(instance, [terms[a] for a in m], k_cap=k)
            got = (int(comp.power * instance.scale), (comp.edges,))
        if got is None:  # cannot happen: the instance's terminals connect
            raise ComponentError(f"terminals {[terms[a] for a in m]} cannot be connected")
        powers.append(got[0])
        legs.append(got[1])
    return ColumnSet(instance, terms, layout, powers, legs)
