"""Structural decompositions of full components.

Two procedures: the bounded-degree split (degree cap Delta, power factor
1 + 2/(ceil(Delta/2)-1)) and the level-cut refinement (cap of h^h terminals
per part, factor 1 + 14/h overall with the best level offset). Components
may share edges; the star-replacement component graph must stay a tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import ceil

from .graph import chains, rooted_children, tree_fault
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
    if not tree.edges:
        raise TreeError("empty tree has no leaf to root the split at")
    root = min(tree.leaves())
    delta_prime = ceil(delta / 2)
    children = rooted_children(tree.edges, root)
    down = _downward(tree.edges, children)
    cost = [c for _, _, c in tree.edges]

    # a split changes no other node's degree, so the over-degree nodes are
    # known up front; each waits for those below it, then goes smallest id first
    above: dict[int, int | None] = {}  # over-degree node -> nearest such ancestor
    walk: list[tuple[int, int | None]] = [(root, None)]
    while walk:
        x, up = walk.pop()
        if tree.degree(x) > delta:
            above[x] = up
            up = x
        walk.extend((y, up) for y, _ in children[x])
    waiting = Counter(above.values())
    ready = [v for v in above if not waiting[v]]
    heapify(ready)

    # the root-side part as {edge id: edge}: insertion keeps the edge order
    rest: dict[int, EdgeT] = dict(enumerate(tree.edges))

    def below(x: int) -> list[tuple[int, int]]:
        return [(y, eid) for y, eid in children[x] if eid in rest]

    parts: list[list[EdgeT]] = []
    while ready:
        split = heappop(ready)
        up = above[split]
        if up is not None:
            waiting[up] -= 1
            if not waiting[up]:
                heappush(ready, up)
        kids = sorted(below(split), key=lambda we: (cost[we[1]], we[0]))
        blocks: list[list[tuple[int, int]]] = []
        while len(kids) > delta - 2:
            blocks.append(kids[:delta_prime])
            kids = kids[delta_prime:]
        # the remaining kids are the root-side block V_h and stay in `rest`

        # each block with its descendants, and the block's reconnecting path
        cuts: list[tuple[dict[int, EdgeT], list[int]]] = []
        for block in blocks:
            part = {}
            visits = []  # (node, entering edge, its (child, edge) pairs), parents first
            for w, eid in block:
                part[eid] = down[eid]
                stack = [(w, eid)]
                while stack:
                    x, e = stack.pop()
                    under = below(x)
                    visits.append((x, e, under))
                    for y, f in under:
                        part[f] = down[f]
                        stack.append((y, f))
            # children first: x's min-power continuation to a leaf, entering by
            # e, as (power, next node, next edge); ties keep the first kid
            best = {}
            for x, e, under in reversed(visits):
                best[x] = min(((max(cost[e], cost[f]) + best[y][0], y, f) for y, f in under),
                              key=lambda t: t[0], default=(cost[e], None, None))
            x, eid = min(block, key=lambda we: best[we[0]][0])
            path = [eid]
            while best[x][1] is not None:
                _, x, eid = best[x]
                path.append(eid)
            cuts.append((part, path))
        for part, _ in cuts:
            for eid in part:
                del rest[eid]
        # the appended path reconnects consecutive parts in the component graph
        for i, (_, path) in enumerate(cuts):
            target = cuts[i + 1][0] if i + 1 < len(cuts) else rest
            for eid in path:
                target[eid] = down[eid]
        parts.extend(list(part.values()) for part, _ in cuts)

    parts.append(list(rest.values()))
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

    # walk the contraction of single-child chains; each contracted edge
    # belongs to the subtree rooted at the nearest marked ancestor (or the
    # root) of its upper endpoint
    cchildren: dict[int, list[tuple[int, list[int]]]] = {}
    clevel = {root: 0}
    top = {root: root}
    groups: dict[int, list[tuple[int, list[int]]]] = {}
    stack = [root]
    while stack:
        x = stack.pop()
        cchildren[x] = kids = chains(children, x)
        if kids:
            groups.setdefault(top[x], []).extend(kids)
        for end, _ in kids:
            clevel[end] = clevel[x] + 1
            top[end] = end if clevel[end] % h == q else top[x]
            stack.append(end)

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
        ids = [eid for _, path in members for eid in path]
        for end in sorted({end for end, _ in members}):
            if top[end] == end and cchildren[end]:  # a marked cut node
                ids.extend(descent_path(end))
        # dict.fromkeys drops repeated ids and keeps first-seen order
        parts.append(CostedTree.induced([down[eid] for eid in dict.fromkeys(ids)], tree.terminals))
    return parts


def h_power_decompose(tree: CostedTree, h: int, q: int | str = "best") -> Decomposition:
    """Two-stage decomposition into parts with at most h^h terminals each.

    Stage 1 is the bounded-degree split with delta = h; parts with more than
    h^h terminals are then level-cut. q = "best" returns the cheapest of the
    h level offsets, which realizes the expectation bound (<= (1 + 14/h) of
    the tree's power). When no stage-1 part has more than h^h terminals,
    every offset gives stage 1, and "best" reports offset 0.
    """
    if h < 3:
        raise TreeError(f"h must be >= 3, got {h}")
    if q != "best":
        if isinstance(q, bool) or not isinstance(q, int):
            raise TreeError(f"q must be an int or 'best', got {q!r}")
        if not 0 <= q < h:
            raise TreeError(f"q must be in [0, {h - 1}], got {q}")
    stage1 = bounded_degree_decompose(tree, h)
    most = max(len(part.terminals) for part in stage1.parts)
    # h^b >= 2^b > most for b = most's bit length, so this decides
    # most <= h^h exactly without building h^h for a large h
    if most <= h ** min(h, most.bit_length()):
        return Decomposition(stage1.parts, tree, stage1.total_power, q=0 if q == "best" else q)
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
    is_tree = bool(edges) and tree_fault([(i, index[t]) for i, t in edges], range(n_nodes)) is None
    return ComponentGraph(len(decomposition.parts), tuple(sorted(terminals)), tuple(edges), is_tree)
