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

from .graph import connects, rooted_children
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


def _downward(edges, children) -> dict[int, EdgeT]:
    """Each edge of a rooted tree, by id, oriented from parent to child."""
    return {eid: (x, y, edges[eid][2]) for x, kids in children.items() for y, eid in kids}


def _descent(children, cost, start: int, in_cost: Fraction):
    """Min-power continuation of a root-to-leaf path entering `start`.

    Returns (power paid from `start` downward, path edge ids); the caller
    adds the split node's own payment.
    """
    kids = children[start]
    if not kids:
        return in_cost, ()
    best = None
    for w, eid in kids:
        sub_val, sub_ids = _descent(children, cost, w, cost[eid])
        val = max(in_cost, cost[eid]) + sub_val
        if best is None or val < best[0]:
            best = (val, (eid,) + sub_ids)
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
        down = _downward(current, children)
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
            descents = [_descent(children, cost, w, cost[eid]) for w, eid in block]
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

    down = _downward(tree.edges, children)
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
