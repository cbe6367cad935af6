"""Structural decompositions of full components.

Two procedures: the bounded-degree split (degree cap Delta, power factor
1 + 2/(ceil(Delta/2)-1)) and the level-cut refinement (cap of h^h terminals
per part, factor 1 + 14/h overall with the best level offset). Components
may share edges; the star-replacement component graph must stay a tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .graph import connects
from .trees import CostedTree, TreeError, validate_full_component

EdgeT = tuple[int, int, Fraction]


@dataclass(frozen=True)
class Decomposition:
    parts: tuple[CostedTree, ...]
    source_tree: CostedTree
    total_power: Fraction
    q: int | None = None


@dataclass(frozen=True)
class ComponentGraph:
    """Star replacement of each part: a dummy center joined to its terminals."""

    center_count: int
    terminals: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (part index, terminal)
    is_tree: bool


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _part_from_edges(edges, terminals: frozenset[int]) -> CostedTree:
    nodes = set()
    for u, v, _ in edges:
        nodes.add(u)
        nodes.add(v)
    return CostedTree(tuple(edges), frozenset(t for t in terminals if t in nodes))


def attach_dummy_leaves(tree: CostedTree) -> CostedTree:
    """Append a cost-0 pendant to each terminal and move terminal status to it.

    The result is one full component; contracting the dummy edges maps any of
    its decompositions back to one of the input with identical power.
    """
    next_id = max(tree.nodes) + 1 if tree.nodes else 0
    edges = list(tree.edges)
    new_terms = []
    for t in sorted(tree.terminals):
        edges.append((t, next_id, Fraction(0)))
        new_terms.append(next_id)
        next_id += 1
    return CostedTree(tuple(edges), frozenset(new_terms))


def _rooted(edges: list[EdgeT], root: int):
    """Parent/children maps of the tree rooted at `root`."""
    adj: dict[int, list[tuple[int, Fraction]]] = {}
    for u, v, c in edges:
        adj.setdefault(u, []).append((v, c))
        adj.setdefault(v, []).append((u, c))
    parent: dict[int, tuple[int, Fraction] | None] = {root: None}
    children: dict[int, list[tuple[int, Fraction]]] = {}
    order = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        kids = []
        for other, c in sorted(adj.get(node, ())):
            if node in parent and parent[node] is not None and other == parent[node][0]:
                continue
            if other in parent:
                continue
            parent[other] = (node, c)
            kids.append((other, c))
            stack.append(other)
            order.append(other)
        children[node] = kids
    return parent, children, order


def _descent(children, start: int, in_cost: Fraction):
    """Min-power continuation of a root-to-leaf path entering `start`.

    Returns (power paid from `start` downward, path edges); the caller adds
    the split node's own payment.
    """
    kids = children.get(start, [])
    if not kids:
        return in_cost, ()
    best = None
    for w, c in kids:
        sub_val, sub_edges = _descent(children, w, c)
        val = max(in_cost, c) + sub_val
        cand = (val, ((start, w, c),) + sub_edges)
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def bounded_degree_decompose(tree: CostedTree, delta: int) -> Decomposition:
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
        parent, children, order = _rooted(current, root)
        degree = {node: len(children[node]) + (0 if parent[node] is None else 1) for node in children}
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

        kids = sorted(children[split], key=lambda wc: (wc[1], wc[0]))
        blocks: list[list[tuple[int, Fraction]]] = []
        rest = list(kids)
        while len(rest) > delta - 2:
            blocks.append(rest[:delta_prime])
            rest = rest[delta_prime:]
        # rest is the root-side block V_h and stays in the root component

        def subtree_edges(w: int) -> list[EdgeT]:
            out = []
            stack = [w]
            while stack:
                x = stack.pop()
                for y, c in children[x]:
                    out.append((x, y, c))
                    stack.append(y)
            return out

        new_parts: list[list[EdgeT]] = []
        removed_keys: set[tuple[int, int]] = set()
        for block in blocks:
            part = []
            for w, c in block:
                part.append((split, w, c))
                part.extend(subtree_edges(w))
            new_parts.append(part)
            for u, v, _ in part:
                removed_keys.add(_edge_key(u, v))

        # the appended path reconnects consecutive parts in the component graph
        appended: list[list[EdgeT]] = []
        for block in blocks:
            best = None
            for idx, (w, c) in enumerate(block):
                val, edges = _descent(children, w, c)
                cand = (val, idx, ((split, w, c),) + edges)
                if best is None or cand[:2] < best[:2]:
                    best = cand
            appended.append(list(best[2]))

        root_part = [e for e in current if _edge_key(e[0], e[1]) not in removed_keys]
        for i in range(len(blocks)):
            target = new_parts[i + 1] if i + 1 < len(new_parts) else root_part
            have = {_edge_key(u, v) for u, v, _ in target}
            for u, v, c in appended[i]:
                if _edge_key(u, v) not in have:
                    target.append((u, v, c))
                    have.add(_edge_key(u, v))
        parts.extend(new_parts)
        current = root_part

    parts.append(current)
    part_trees = tuple(_part_from_edges(p, tree.terminals) for p in parts)
    total = sum((p.power() for p in part_trees), Fraction(0))
    return Decomposition(part_trees, tree, total)


# ---------------------------------------------------------------------------
# level-cut refinement (stage 2)


def level_cut_parts(tree: CostedTree, h: int, q: int) -> list[CostedTree]:
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
    parent, children, order = _rooted(list(tree.edges), root)

    # contract degree-2 internal nodes (other than the root)
    cchildren: dict[int, list[tuple[int, list[EdgeT]]]] = {}
    clevel: dict[int, int] = {root: 0}
    cparent: dict[int, int | None] = {root: None}

    def contracted_children(x: int) -> list[tuple[int, list[EdgeT]]]:
        out = []
        for w, c in children[x]:
            path = [(x, w, c)]
            end = w
            while end not in tree.terminals and len(children[end]) == 1:
                nxt, c2 = children[end][0]
                path.append((end, nxt, c2))
                end = nxt
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

    groups: dict[int, list[tuple[int, int, list[EdgeT]]]] = {}
    for x in cchildren:
        for end, path in cchildren[x]:
            groups.setdefault(top(x), []).append((x, end, path))

    def descent_path(v: int) -> list[EdgeT]:
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

    parts: list[CostedTree] = []
    for w in sorted(groups):
        edges: list[EdgeT] = []
        keys: set[tuple[int, int]] = set()
        members = groups[w]
        lower_ends = {end for _, end, _ in members}
        for _, _, path in members:
            for u, v, c in path:
                if _edge_key(u, v) not in keys:
                    keys.add(_edge_key(u, v))
                    edges.append((u, v, c))
        for end in sorted(lower_ends):
            if end in marked and cchildren.get(end):
                for u, v, c in descent_path(end):
                    if _edge_key(u, v) not in keys:
                        keys.add(_edge_key(u, v))
                        edges.append((u, v, c))
        parts.append(_part_from_edges(edges, tree.terminals))
    return parts


def h_power_decompose(tree: CostedTree, h: int, q: int | str = "best") -> Decomposition:
    """Two-stage decomposition into parts with at most h^h terminals each.

    Stage 1 is the bounded-degree split with delta = h; parts with more than
    h^h terminals are then level-cut. q = "best" returns the cheapest of the
    h level offsets, which realizes the expectation bound (<= (1 + 14/h) of
    the tree's power).
    """
    if h < 3:
        raise TreeError(f"h must be >= 3, got {h}")
    stage1 = bounded_degree_decompose(tree, h)
    limit = h**h

    def refine(qv: int) -> tuple[tuple[CostedTree, ...], Fraction]:
        parts: list[CostedTree] = []
        for part in stage1.parts:
            if len(part.terminals) > limit:
                parts.extend(level_cut_parts(part, h, qv))
            else:
                parts.append(part)
        total = sum((p.power() for p in parts), Fraction(0))
        return tuple(parts), total

    if q == "best":
        best = None
        for qv in range(h):
            parts, total = refine(qv)
            if best is None or total < best[2]:
                best = (qv, parts, total)
        return Decomposition(best[1], tree, best[2], q=best[0])
    if not isinstance(q, int):
        raise TreeError(f"q must be an int or 'best', got {q!r}")
    parts, total = refine(q)
    return Decomposition(parts, tree, total, q=q)


def component_graph(decomposition: Decomposition) -> ComponentGraph:
    """Star-replacement bipartite graph and its tree verdict."""
    edges: list[tuple[int, int]] = []
    terminals: set[int] = set()
    for i, part in enumerate(decomposition.parts):
        for t in sorted(part.terminals):
            edges.append((i, t))
            terminals.add(t)
    n_nodes = len(decomposition.parts) + len(terminals)
    # parts are nodes 0..P-1 of the bipartite graph, terminals follow
    index = {t: len(decomposition.parts) + j for j, t in enumerate(sorted(terminals))}
    is_tree = (
        bool(edges) and len(edges) == n_nodes - 1
        and connects(n_nodes, ((i, index[t]) for i, t in edges), range(n_nodes))
    )
    return ComponentGraph(len(decomposition.parts), tuple(sorted(terminals)), tuple(edges), is_tree)
