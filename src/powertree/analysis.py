"""Executable analysis quantities: harmonic deletion-time bounds, the
heavy/middle/light edge classification, the rooted binarization of a full
component, and the random witness-tree machinery with empirical checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .graph import chains, rooted_children, tree_fault
from .trees import CostedTree, validate_full_component


# most witness_stats trials: each one samples and checks a whole witness tree
MAX_TRIALS = 100_000


class AnalysisError(ValueError):
    """Raised on invalid analysis queries or violated structural properties."""


def harmonic(n: int) -> Fraction:
    """n-th harmonic number, exact."""
    if n < 0:
        raise AnalysisError(f"harmonic number needs n >= 0, got {n}")
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def delta_spanning(m, i: int) -> Fraction:
    """Expected deletion rounds of a node's i most expensive edges, spanning
    case: M * H_i, exact."""
    if i < 1:
        raise AnalysisError(f"i must be >= 1, got {i}")
    return Fraction(m) * harmonic(i)


def delta_steiner(m, i: int) -> float:
    """Steiner-case bound: (1/2^i) M H_i + (1 - 1/2^i) sum_q (1/2^q) M H_{q+i}.

    The series is truncated adaptively: iteration stops once the tail bound
    (H_{q+i} + 2) / 2^q drops below 1e-12, leaving absolute error below
    1e-10 * M.
    """
    if i < 1:
        raise AnalysisError(f"i must be >= 1, got {i}")
    m = float(m)
    if m <= 0:
        raise AnalysisError(f"M must be positive, got {m}")
    h = float(harmonic(i))
    total = 0.0
    h_qi = h
    q = 0
    while True:
        q += 1
        h_qi += 1.0 / (q + i)
        total += h_qi / 2.0**q
        if (h_qi + 2.0) / 2.0**q < 1e-12:
            break
    scale = 0.5**i
    return m * (scale * h + (1.0 - scale) * total)


@dataclass(frozen=True)
class DeltaReport:
    kind: str
    i_max: int
    values: tuple[float, ...]
    increasing: bool
    concave_increments: bool


def check_delta_properties(kind: str, i_max: int, m=1) -> DeltaReport:
    """Verify that the delta bounds increase with i at decreasing speed."""
    if kind not in ("spanning", "steiner"):
        raise AnalysisError(f"unknown kind {kind!r}")
    if not 1 <= i_max <= 50:
        raise AnalysisError(f"i_max must be in [1, 50], got {i_max}")
    tol = 1e-9 * float(m)
    if kind == "spanning":
        values = [float(delta_spanning(m, i)) for i in range(1, i_max + 2)]
    else:
        values = [delta_steiner(m, i) for i in range(1, i_max + 2)]
    deltas = [0.0] + values  # delta^0 = 0
    increasing = all(deltas[i] <= deltas[i + 1] + tol for i in range(1, i_max + 1))
    concave = all(
        deltas[i] - deltas[i - 1] >= deltas[i + 1] - deltas[i] - tol
        for i in range(1, i_max + 1)
    )
    report = DeltaReport(kind, i_max, tuple(values[:i_max]), increasing, concave)
    if not (increasing and concave):
        raise AnalysisError(f"delta properties violated: {report}")
    return report


def theoretical_factor(mode: str):
    """Headline approximation factors: 3/2 (spanning), 3 ln 4 - 9/4 (steiner).

    The LP tolerance epsilon is reported separately by callers, never folded
    into these values.
    """
    if mode == "spanning":
        return delta_spanning(1, 2)
    if mode == "steiner":
        return delta_steiner(1, 2)
    raise AnalysisError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# heavy / middle / light classification


@dataclass(frozen=True)
class EdgeClassification:
    heavy: tuple[int, ...]
    middle: tuple[int, ...]
    light: tuple[int, ...]
    gamma_h: Fraction
    gamma_m: Fraction
    alpha: Fraction


def classify_edges(tree: CostedTree) -> EdgeClassification:
    """Partition tree edges by how many endpoint powers they define.

    An edge is heavy if it is the max-cost incident edge of both endpoints
    (ties to the smallest edge index), middle if of exactly one, light
    otherwise; then p = (2*gamma_h + gamma_m) * c exactly.
    """
    if not tree.edges:
        raise AnalysisError("empty tree has no classification")
    total_cost = tree.cost()
    if total_cost == 0:
        raise AnalysisError("zero-cost tree has no edge classification")
    defining = {
        node: max(ids, key=lambda e: (tree.edges[e][2], -e)) for node, ids in tree.adjacency.items()
    }
    heavy, middle, light = [], [], []
    cost_h = Fraction(0)
    cost_m = Fraction(0)
    for idx, (u, v, c) in enumerate(tree.edges):
        hits = (defining[u] == idx) + (defining[v] == idx)
        if hits == 2:
            heavy.append(idx)
            cost_h += c
        elif hits == 1:
            middle.append(idx)
            cost_m += c
        else:
            light.append(idx)
    gamma_h = cost_h / total_cost
    gamma_m = cost_m / total_cost
    return EdgeClassification(
        tuple(heavy), tuple(middle), tuple(light), gamma_h, gamma_m,
        2 * gamma_h + gamma_m,
    )


# ---------------------------------------------------------------------------
# rooted binarization


@dataclass
class MarkedBinaryTree:
    """Rooted binary form of a full component.

    Bin edges are keyed by their lower endpoint (every non-root node has one
    parent edge). Dummy edges cost 0; each bin edge carries the original edge
    indices it stands for (several for a contracted chain of single-child
    nodes, none for pure dummies). Built unmarked; witness sampling supplies
    marks separately.
    """

    source: CostedTree
    root: int
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]]
    edge_origs: dict[int, tuple[int, ...]]
    edge_cost: dict[int, Fraction]
    dummy_edges: frozenset[int]
    levels: dict[int, int]
    terminals: frozenset[int]
    orig_to_bin: dict[int, int]

    def internal_nodes(self) -> list[int]:
        return sorted(n for n, ch in self.children.items() if ch)


def build_binary_tree(tree: CostedTree) -> MarkedBinaryTree:
    """Split one edge (smallest index) and root there; contract each chain of
    single-child nodes into one bin edge and binarize with cost-0 dummy
    chains placing the most expensive child edges on the highest consecutive
    levels.
    """
    validate_full_component(tree)
    if len(tree.terminals) < 2:
        raise AnalysisError("binarization needs at least 2 terminals")
    root = max(tree.nodes) + 1
    next_id = root + 1
    u0, v0, _ = tree.edges[0]
    a0, b0 = (u0, v0) if u0 < v0 else (v0, u0)

    # rooted child lists on the original tree, split at edge 0 below the new root
    raw_children = rooted_children(tree.edges, a0)
    raw_children[a0] = [(other, idx) for other, idx in raw_children[a0] if idx != 0]
    raw_children[root] = [(a0, 0), (b0, 0)]

    parent: dict[int, int] = {}
    # the split edge's endpoints keep a child list even as leaves
    children: dict[int, list[int]] = {x: [] for x in (a0, b0) if not raw_children[x]}
    edge_origs: dict[int, tuple[int, ...]] = {}
    edge_cost: dict[int, Fraction] = {}
    levels = {root: 0}
    dummy: set[int] = set()

    def attach(p: int, child: int, origs: tuple[int, ...]) -> None:
        parent[child] = p
        children.setdefault(p, []).append(child)
        edge_origs[child] = origs
        levels[child] = levels[p] + 1
        if origs:
            edge_cost[child] = max(tree.edges[idx][2] for idx in origs)
        else:
            edge_cost[child] = Fraction(0)
            dummy.add(child)

    stack = [root]
    while stack:
        node = stack.pop()
        kids = chains(raw_children, node)
        ordered = kids
        if len(kids) > 2:
            # dummy chain: most expensive first edge highest, ties to smallest index
            ordered = sorted(kids, key=lambda kp: (-tree.edges[kp[1][0]][2], kp[1][0]))
        holder = node
        for pos, (end, path) in enumerate(ordered):
            attach(holder, end, tuple(path))
            if pos < len(ordered) - 2:
                attach(holder, next_id, ())
                holder = next_id
                next_id += 1
        stack.extend(end for end, _ in reversed(kids))

    orig_to_bin = {idx: end for end, origs in edge_origs.items() for idx in origs}
    # the split edge maps to the b-side end when b0 was a chain node, else to the a-side end
    (a_end, _), (b_end, b_path) = chains(raw_children, root)
    orig_to_bin[0] = b_end if len(b_path) > 1 else a_end
    return MarkedBinaryTree(
        source=tree,
        root=root,
        parent=parent,
        children={k: tuple(v) for k, v in children.items()},
        edge_origs=edge_origs,
        edge_cost=edge_cost,
        dummy_edges=frozenset(dummy),
        levels=levels,
        terminals=tree.terminals,
        orig_to_bin=orig_to_bin,
    )


# ---------------------------------------------------------------------------
# witness trees


@dataclass
class WitnessStructure:
    sbin: MarkedBinaryTree
    marks: frozenset[int]  # marked bin edges, keyed by lower endpoint
    witness_edges: tuple[tuple[int, int], ...]
    witness_map: dict[int, frozenset[tuple[int, int]]]  # bin edge -> T* edges

    def witness_set(self, orig_edge: int) -> frozenset[tuple[int, int]]:
        return self.witness_map[self.sbin.orig_to_bin[orig_edge]]

    def validate(self) -> None:
        """T* must be a spanning tree on the terminals; every original edge
        must have a nonempty witness set."""
        terms = sorted(self.sbin.terminals)
        if len(self.witness_edges) != len(terms) - 1:
            raise AnalysisError(
                f"witness tree has {len(self.witness_edges)} edges for {len(terms)} terminals"
            )
        fault = tree_fault(self.witness_edges, terms)
        if fault == "disconnected":
            raise AnalysisError("witness tree is disconnected")
        if fault is not None:
            raise AnalysisError("witness tree contains a cycle")
        for orig in range(len(self.sbin.source.edges)):
            if not self.witness_set(orig):
                raise AnalysisError(f"empty witness set for edge {orig}")


def _draw_marks(sbin: MarkedBinaryTree, rng: random.Random) -> frozenset[int]:
    marks = set()
    for node in sbin.internal_nodes():
        first, second = sbin.children[node]
        marks.add(first if rng.random() < 0.5 else second)
    return frozenset(marks)


def _descent(sbin: MarkedBinaryTree, node: int, marks: frozenset[int]) -> list[int]:
    """`node` and the nodes below it on its unmarked descent; the last is a leaf."""
    path = [node]
    while sbin.children.get(node):
        node = next(ch for ch in sbin.children[node] if ch not in marks)
        path.append(node)
    return path


def _derive(sbin: MarkedBinaryTree, marks: frozenset[int]) -> WitnessStructure:
    """T* joins, at each internal node, the leaves its two children reach by
    unmarked descents. Their bin path is the two descents, and its one mark
    is the node's marked child; every other terminal pair's path holds at
    least two. Each bin edge on the two descents witnesses the pair."""
    witness_edges = []
    witness_map: dict[int, set[tuple[int, int]]] = {key: set() for key in sbin.parent}
    for node in sbin.internal_nodes():
        left, right = (_descent(sbin, ch, marks) for ch in sbin.children[node])
        pair = (min(left[-1], right[-1]), max(left[-1], right[-1]))
        witness_edges.append(pair)
        for key in left + right:
            witness_map[key].add(pair)
    return WitnessStructure(
        sbin, marks, tuple(sorted(witness_edges)),
        {k: frozenset(v) for k, v in witness_map.items()},
    )


def sample_witness(sbin: MarkedBinaryTree, seed: int) -> WitnessStructure:
    """Mark one child edge per internal node uniformly at random and derive
    the witness tree T* together with all witness sets."""
    rng = random.Random(seed)
    return _derive(sbin, _draw_marks(sbin, rng))


@dataclass(frozen=True)
class WitnessReport:
    node: int
    i: int
    trials: int
    freq_s_equals_d: float
    expected_s_equals_d: float
    binomial_sigma: float
    wsize_histogram: dict[int, int]
    mean_harmonic: float
    delta_bound: float
    max_within_component_edges: int


def witness_stats(
    tree: CostedTree,
    v: int,
    i: int,
    trials: int,
    seed: int,
) -> WitnessReport:
    """Empirical distribution of the witness machinery around node v.

    Per trial: check T* is a terminal spanning tree, locate s' (the unmarked
    descent of the expanded chain T') and d' (its only leaf free of the i
    top edges), count witness edges inside C', and collect |W^i(v)|. The
    frequency of s' = d' estimates 1/2^i; the mean of H_{|W^i(v)|} is
    compared one-sidedly against the closed-form bound.
    """
    if trials < 1:
        raise AnalysisError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise AnalysisError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    sbin = build_binary_tree(tree)
    incident = [(tree.edges[idx][2], idx) for idx in tree.adjacency.get(v, ())]
    d_v = len(incident)
    if d_v < 3:
        raise AnalysisError(f"node {v} has degree {d_v} < 3")
    if not 1 <= i < d_v:
        raise AnalysisError(f"i must be in [1, {d_v - 1}], got {i}")
    ranked = sorted(incident, key=lambda ce: (-ce[0], ce[1]))
    top_edges = [idx for _, idx in ranked[:i]]
    f_keys = [sbin.orig_to_bin[idx] for idx in top_edges]
    if len(set(f_keys)) != i:
        raise AnalysisError("top edges collapse onto one bin edge; pick another node")

    tprime: set[int] = set()
    for key in f_keys:
        p = sbin.parent[key]
        for sib in sbin.children[p]:
            tprime.add(sib)
    t_nodes = set()
    for key in tprime:
        t_nodes.add(key)
        t_nodes.add(sbin.parent[key])
    r_prime = min(t_nodes, key=lambda n: sbin.levels[n])
    t_leaves = [n for n in t_nodes if not any(ch in tprime for ch in sbin.children.get(n, ()))]
    f_endpoints = set()
    for key in f_keys:
        f_endpoints.add(key)
        f_endpoints.add(sbin.parent[key])
    d_candidates = [n for n in t_leaves if n not in f_endpoints]
    if len(d_candidates) != 1:
        raise AnalysisError(
            "d' is not unique: the i most expensive edges of v must be child "
            "edges in the binarization (paper handles other cases only qualitatively)"
        )
    d_prime = d_candidates[0]

    hits = 0
    histogram: dict[int, int] = {}
    harmonic_sum = 0.0
    max_within = 0
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        marks = _draw_marks(sbin, rng)
        ws = _derive(sbin, marks)
        ws.validate()

        # s': unmarked descent within T'
        node = r_prime
        while True:
            nxt = [ch for ch in sbin.children.get(node, ()) if ch in tprime and ch not in marks]
            if not nxt:
                break
            node = nxt[0]
        if node == d_prime:
            hits += 1

        # C': expand T' leaves by unmarked descents in the full tree
        leaves_c = {_descent(sbin, leaf, marks)[-1] for leaf in t_leaves}
        within = sum(
            1 for a, b in ws.witness_edges if a in leaves_c and b in leaves_c
        )
        max_within = max(max_within, within)
        if within > i:
            raise AnalysisError(
                f"trial {trial}: {within} witness edges inside C' exceeds i={i}"
            )

        wset: set[tuple[int, int]] = set()
        for key in f_keys:
            wset |= ws.witness_map[key]
        size = len(wset)
        histogram[size] = histogram.get(size, 0) + 1
        harmonic_sum += float(harmonic(size))

    expected = 0.5**i
    sigma = sqrt(expected * (1 - expected) / trials)
    return WitnessReport(
        node=v,
        i=i,
        trials=trials,
        freq_s_equals_d=hits / trials,
        expected_s_equals_d=expected,
        binomial_sigma=sigma,
        wsize_histogram=dict(sorted(histogram.items())),
        mean_harmonic=harmonic_sum / trials,
        delta_bound=delta_steiner(1, i),
        max_within_component_edges=max_within,
    )
