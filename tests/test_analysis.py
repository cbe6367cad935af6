import math
import random
from fractions import Fraction as F

import pytest

from powertree.analysis import (
    MAX_TRIALS,
    AnalysisError,
    EdgeClassification,
    build_binary_tree,
    check_delta_properties,
    classify_edges,
    delta_spanning,
    delta_steiner,
    harmonic,
    sample_witness,
    theoretical_factor,
    witness_stats,
)
from powertree.analysis import _derive, _draw_marks
from powertree.decomposition import (
    Decomposition,
    attach_dummy_leaves,
    bounded_degree_decompose,
    level_cut_parts,
)
from powertree.trees import CostedTree, random_full_component

from oracles import (
    build_binary_tree_reference,
    bounded_degree_decompose_reference,
    level_cut_parts_reference,
    witness_reference,
)


def steiner_series_reference(i: int, terms: int = 200) -> float:
    """Independent high-precision evaluation: plain partial sum to q = terms."""
    h = F(0)
    for j in range(1, i + 1):
        h += F(1, j)
    total = F(0)
    h_qi = h
    for q in range(1, terms + 1):
        h_qi += F(1, q + i)
        total += h_qi / F(2) ** q
    scale = F(1, 2**i)
    return float(scale * h + (1 - scale) * total)


# ---------------------------------------------------------------------------
# delta formulas


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(2) == F(3, 2)
    assert harmonic(4) == F(25, 12)


def test_delta_spanning_closed_forms():
    assert delta_spanning(1, 2) == F(3, 2)
    assert delta_spanning(2, 3) == 2 * F(11, 6)


def test_delta_steiner_headline_value():
    assert abs(delta_steiner(1, 2) - (3 * math.log(4) - 2.25)) < 1e-6


def test_delta_steiner_i1_is_2ln2():
    assert abs(delta_steiner(1, 1) - steiner_series_reference(1)) < 1e-10
    assert abs(delta_steiner(1, 1) - 2 * math.log(2)) < 1e-6


def test_delta_steiner_matches_reference_series():
    for i in range(1, 12):
        assert abs(delta_steiner(1, i) - steiner_series_reference(i)) < 1e-9


def test_delta_properties_spanning():
    report = check_delta_properties("spanning", 50)
    # harmonic increments M/(i+1), strictly decreasing
    vals = [0.0] + list(report.values)
    incs = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    assert all(incs[i] > incs[i + 1] for i in range(len(incs) - 1))


def test_delta_properties_steiner():
    report = check_delta_properties("steiner", 50)
    assert report.increasing and report.concave_increments


def test_delta_properties_vacuous_at_one():
    report = check_delta_properties("spanning", 1)
    assert report.i_max == 1


def test_theoretical_factors():
    assert theoretical_factor("spanning") == F(3, 2)
    assert abs(theoretical_factor("steiner") - 1.9088831) < 1e-6
    for mode in ("spanning", "steiner"):
        assert 1 < float(theoretical_factor(mode)) < 2


# ---------------------------------------------------------------------------
# edge classification


def test_classify_path():
    tree = CostedTree(((0, 1, F(1)), (1, 2, F(3))), frozenset({0, 2}))
    cls = classify_edges(tree)
    assert cls.heavy == (1,)
    assert cls.middle == (0,)
    assert cls.light == ()
    assert cls.gamma_h == F(3, 4)
    assert cls.gamma_m == F(1, 4)
    assert cls.alpha == F(7, 4)
    # p = alpha * c exactly: 7 = (7/4) * 4
    assert cls.alpha * tree.cost() == tree.power()


def test_classify_uniform_star_identity_is_tie_independent():
    edges = tuple((4, leaf, F(2)) for leaf in range(4))
    tree = CostedTree(edges, frozenset(range(4)))
    cls = classify_edges(tree)
    assert cls.alpha * tree.cost() == tree.power()
    assert len(cls.heavy) + len(cls.middle) + len(cls.light) == 4


def test_classify_random_trees():
    for seed in range(200):
        tree = random_full_component(90_000 + seed, terminal_count=6)
        cls = classify_edges(tree)
        assert 1 <= cls.alpha <= 2
        assert cls.alpha * tree.cost() == tree.power()
        assert set(cls.heavy) | set(cls.middle) | set(cls.light) == set(range(len(tree.edges)))


# ---------------------------------------------------------------------------
# binarization


def hub_component() -> CostedTree:
    # hub node 0 with terminal children of costs 9, 7, 5, 3 and a cost-1
    # edge to the second internal node 1 (which holds two terminals), so
    # the top-3 incident edges of the hub are all child edges
    edges = (
        (1, 6, F(2)),
        (1, 7, F(4)),
        (0, 1, F(1)),
        (0, 2, F(9)),
        (0, 3, F(7)),
        (0, 4, F(5)),
        (0, 5, F(3)),
    )
    return CostedTree(edges, frozenset({2, 3, 4, 5, 6, 7}))


def test_binary_tree_expensive_edges_on_top():
    sbin = build_binary_tree(hub_component())
    # the hub's children: 9-cost edge strictly above 7-cost, 7 above-or-level
    # with 5 (the last two children share the bottom dummy)
    lev9 = sbin.levels[2]
    lev7 = sbin.levels[3]
    lev5 = sbin.levels[4]
    assert lev9 < lev7 <= lev5
    for node, kids in sbin.children.items():
        assert len(kids) in (0, 2)
    for key in sbin.dummy_edges:
        assert sbin.edge_cost[key] == 0


def test_binary_tree_preserves_binary_component():
    # both endpoints of the split edge keep two children: no dummies, no shortcuts
    edges = ((0, 1, F(2)), (0, 2, F(3)), (0, 3, F(1)), (1, 4, F(5)), (1, 5, F(4)))
    tree = CostedTree(edges, frozenset({2, 3, 4, 5}))
    sbin = build_binary_tree(tree)
    assert not sbin.dummy_edges
    assert set(sbin.levels) == set(tree.nodes) | {sbin.root}


def test_binary_tree_deep_caterpillar():
    # a path of 1500 internal nodes, each with a terminal: far deeper than
    # Python's recursion limit
    n = 1500
    edges = [(v, v + 1, F(v % 7 + 1)) for v in range(n - 1)]
    edges += [(v, n + v, F(2)) for v in range(n)] + [(0, 2 * n, F(3)), (n - 1, 2 * n + 1, F(3))]
    tree = CostedTree(tuple(edges), frozenset(range(n, 2 * n + 2)))
    sbin = build_binary_tree(tree)
    assert len(sbin.internal_nodes()) == len(tree.terminals) - 1
    assert max(sbin.levels.values()) == n
    assert sorted(sbin.orig_to_bin) == list(range(len(edges)))


def test_binary_tree_requires_full_component():
    with pytest.raises(Exception):
        build_binary_tree(CostedTree(((0, 1, F(1)), (1, 2, F(1))), frozenset({0, 1, 2})))


# ---------------------------------------------------------------------------
# witness trees


def chain_component() -> CostedTree:
    # y=0 (degree 2, contracted), z=1; terminals b=2, c=3, d=4
    # edge ids: 0: y-b cost 3 (split edge), 1: y-z cost 5, 2: z-c cost 8, 3: z-d cost 2
    edges = ((0, 2, F(3)), (0, 1, F(5)), (1, 3, F(8)), (1, 4, F(2)))
    return CostedTree(edges, frozenset({2, 3, 4}))


def test_witness_sets_hand_computed():
    sbin = build_binary_tree(chain_component())
    # structure: root -> {z=1 (merged y edges), b=2}; z -> {c=3, d=4}
    assert sorted(sbin.children[sbin.root]) == [1, 2]
    assert sbin.children[1] == (3, 4)  # c before d (cost 8 > 2)
    assert sorted(sbin.edge_origs[1]) == [0, 1]

    marks = frozenset({2, 4})  # mark the b-edge at the root and the d-edge at z
    ws = _derive(sbin, marks)
    ws.validate()
    assert set(ws.witness_edges) == {(2, 3), (3, 4)}
    assert ws.witness_set(2) == frozenset({(2, 3), (3, 4)})  # cost-8 edge
    assert ws.witness_set(1) == frozenset({(2, 3)})          # cost-5 edge
    assert ws.witness_set(3) == frozenset({(3, 4)})          # cost-2 edge
    assert ws.witness_set(0) == frozenset({(2, 3)})          # split edge


def test_sampled_witness_is_always_spanning_tree():
    for seed in range(60):
        tree = random_full_component(91_000 + seed, terminal_count=7)
        sbin = build_binary_tree(tree)
        ws = sample_witness(sbin, seed)
        ws.validate()  # spanning tree + nonempty witness sets
        flat = set()
        for key, wset in ws.witness_map.items():
            flat |= wset
        assert flat <= set(ws.witness_edges)


def random_recursive_tree(seed: int) -> CostedTree:
    # leaves and some inner nodes are terminals; cost-0 edges included
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    edges = tuple((rng.randrange(i), i, F(rng.randint(0, 9))) for i in range(1, n))
    deg = [0] * n
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    terms = {v for v in range(n) if deg[v] <= 1 or rng.random() < 0.3}
    return CostedTree(edges, frozenset(terms))


def test_derive_matches_all_pairs_reference():
    trees = [random_full_component(92_000 + seed) for seed in range(40)]
    trees += [
        random_full_component(93_000 + seed, terminal_count=28 + seed, degree_cap=3 + seed % 3)
        for seed in range(22)
    ]
    trees += [attach_dummy_leaves(random_recursive_tree(94_000 + seed)) for seed in range(40)]
    trees += [random_full_component(95_000 + seed, terminal_count=200, degree_cap=4) for seed in range(2)]
    for tree in trees:
        sbin = build_binary_tree(tree)
        for draw in range(3):
            marks = _draw_marks(sbin, random.Random(draw))
            ws = _derive(sbin, marks)
            assert (ws.witness_edges, ws.witness_map) == witness_reference(sbin, marks)


def outcome(fn, *args):
    """fn's result, or its error's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def binary_fields(sbin):
    if isinstance(sbin, tuple):
        return sbin
    return (sbin.root, sbin.parent, sbin.children, sbin.edge_origs, sbin.edge_cost, sbin.dummy_edges,
            sbin.levels, sbin.terminals, sbin.orig_to_bin)


def test_chain_contraction_matches_reference():
    trees = []
    for seed in range(40):
        trees.append(random_full_component(81_000 + seed))
        trees.append(random_full_component(82_000 + seed, terminal_count=28 + seed % 22, degree_cap=3 + seed % 3))
        trees.append(attach_dummy_leaves(random_recursive_tree(83_000 + seed)))
    multi_split = 0
    for tree in trees:
        assert binary_fields(outcome(build_binary_tree, tree)) == binary_fields(
            outcome(build_binary_tree_reference, tree))
        for delta in range(3, 7):
            dec = outcome(bounded_degree_decompose, tree, delta)
            assert dec == outcome(bounded_degree_decompose_reference, tree, delta)
            multi_split += isinstance(dec, Decomposition) and len(dec.parts) > 2
        for h in (3, 4):
            for q in range(h):
                assert outcome(level_cut_parts, tree, h, q) == outcome(level_cut_parts_reference, tree, h, q)
    # several over-degree nodes per tree, so the split order is exercised
    assert multi_split > 100


def test_binary_tree_split_edge_maps_to_chain_end():
    # edge 0 joins a0=0 (children 5, 6) to b0=1, a chain node above 2
    edges = ((0, 1, F(3)), (1, 2, F(5)), (2, 3, F(1)), (2, 4, F(2)), (0, 5, F(4)), (0, 6, F(7)))
    sbin = build_binary_tree(CostedTree(edges, frozenset({3, 4, 5, 6})))
    assert sbin.children[sbin.root] == (0, 2)
    assert sbin.edge_origs[2] == (0, 1) and sbin.edge_cost[2] == F(5)
    assert sbin.orig_to_bin[0] == 2 and sbin.orig_to_bin[1] == 2
    # with a0 a chain node too (0 -> 7 above 5, 6), edge 0 still maps to the b side
    edges = edges[:4] + ((0, 7, F(4)), (7, 5, F(1)), (7, 6, F(1)))
    sbin = build_binary_tree(CostedTree(edges, frozenset({3, 4, 5, 6})))
    assert sbin.children[sbin.root] == (7, 2) and sbin.edge_origs[7] == (0, 4)
    assert sbin.orig_to_bin[0] == 2
    # with only a0 a chain node, edge 0 maps to the a side
    edges = ((0, 1, F(3)), (0, 7, F(4)), (7, 5, F(1)), (7, 6, F(1)))
    sbin = build_binary_tree(CostedTree(edges, frozenset({1, 5, 6})))
    assert sbin.children[sbin.root] == (7, 1)
    assert sbin.orig_to_bin[0] == 7


def test_witness_stats_matches_marking_probability():
    tree = hub_component()
    for i in (1, 2, 3):
        rep = witness_stats(tree, 0, i, trials=2500, seed=11)
        assert abs(rep.freq_s_equals_d - rep.expected_s_equals_d) <= 3 * rep.binomial_sigma
        assert rep.max_within_component_edges <= i
        assert rep.mean_harmonic <= rep.delta_bound + 3 * rep.binomial_sigma


def test_witness_stats_preconditions():
    tree = hub_component()
    with pytest.raises(AnalysisError, match="degree"):
        witness_stats(tree, 5, 1, trials=10, seed=0)  # terminal leaf, degree 1
    with pytest.raises(AnalysisError, match="i must"):
        witness_stats(tree, 0, 5, trials=10, seed=0)  # i = d(v) not allowed
    with pytest.raises(AnalysisError, match="not unique"):
        # i = d(v) - 1 takes every child edge: no leftover leaf d' exists
        witness_stats(tree, 0, 4, trials=10, seed=0)
    with pytest.raises(AnalysisError, match="trials must be >= 1"):
        witness_stats(tree, 0, 1, trials=0, seed=0)
    with pytest.raises(AnalysisError, match=f"at most {MAX_TRIALS}"):
        witness_stats(tree, 0, 1, trials=MAX_TRIALS + 1, seed=0)
