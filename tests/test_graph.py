import random
from fractions import Fraction as F

import pytest

from oracles import extract_tree_reference, strip_leaves_reference
from powertree.generators import GENERATOR_KINDS, generate
from powertree.graph import UnionFind, chains, connects, rooted_children, strip_leaves, tree_fault
from powertree.pruning import extract_tree
from powertree.trees import CostedTree, TreeError, prune_nonterminal_leaves


def test_union_reports_cycle():
    uf = UnionFind(4)
    assert uf.union(0, 1) and uf.union(1, 2)
    assert not uf.union(2, 0)
    assert uf.joins([0, 1, 2]) and not uf.joins([0, 3])
    assert uf.joins([]) and uf.joins([3])


def test_connects_single_node_and_disconnected():
    assert connects(1, [], [0])
    assert connects(3, [(0, 1, 5)], [1])
    assert not connects(4, [(0, 1), (2, 3)], [0, 3])
    assert connects(4, [(0, 1), (2, 3), (1, 2)], range(4))


def test_strip_leaves_keeps_paths_between_kept_nodes():
    # path 0-1-2-3 with a pendant 1-4 and a separate edge 5-6
    edges = [(0, 1), (1, 2), (2, 3), (1, 4), (5, 6)]
    assert strip_leaves(edges, range(5), {0, 2}) == [0, 1]
    assert strip_leaves(edges, range(5), {4}) == []
    assert strip_leaves(edges, range(5), {0, 1, 2, 3, 4, 5, 6}) == [0, 1, 2, 3, 4]


def test_rooted_children_single_node():
    assert rooted_children([], 5) == {5: []}


def test_rooted_children_order_and_edge_ids():
    # star at 4 listed out of child order, with a path 1-6 below child 1
    edges = [(4, 9, 1), (2, 4, 1), (4, 1, 1), (6, 1, 1)]
    assert rooted_children(edges, 4) == {4: [(1, 2), (2, 1), (9, 0)], 1: [(6, 3)], 2: [], 6: [], 9: []}


def test_rooted_children_leaf_root():
    edges = [(4, 9, 1), (2, 4, 1), (4, 1, 1), (6, 1, 1)]
    assert rooted_children(edges, 6) == {6: [(1, 3)], 1: [(4, 2)], 4: [(2, 1), (9, 0)], 2: [], 9: []}


def test_chains_follow_single_child_nodes():
    # root 0 with children 1 (chain 1-2-3 to the branch node 3) and 5 (a leaf);
    # 3 has children 4 and 6, and 6 continues through 7 to the leaf 8
    edges = [(0, 1, 1), (2, 1, 1), (2, 3, 1), (3, 4, 1), (0, 5, 1), (3, 6, 1), (7, 6, 1), (7, 8, 1)]
    children = rooted_children(edges, 0)
    assert chains(children, 0) == [(3, [0, 1, 2]), (5, [4])]
    assert chains(children, 3) == [(4, [3]), (8, [5, 6, 7])]
    assert chains(children, 2) == [(3, [2])]
    assert chains(children, 8) == []
    # a path rooted at one end is one chain to the other end
    assert chains(rooted_children([(0, 1), (1, 2), (2, 3)], 0), 0) == [(3, [0, 1, 2])]


def test_tree_fault_first_fault_in_edge_order():
    assert tree_fault([]) is None and tree_fault([], ["a"]) is None
    assert tree_fault([(-3, "x"), ("x", 7)]) is None
    assert tree_fault([(0, 1), (1, 0), (2, 2)]) == "cyclic"
    assert tree_fault([(0, 1), (2, 2), (1, 0)]) == "self-loop"
    assert tree_fault([(0, 1), (2, 3)]) == "disconnected"
    assert tree_fault([(0, 1)], [0, 1, 5]) == "disconnected"


def _instances():
    for kind in GENERATOR_KINDS:
        for s in range(6):
            nodes = 4 if kind == "reduction-wrapped" else 6 + s % 5
            yield generate(kind, nodes, min(3 + s % 3, nodes), 1000 * s + len(kind))


def test_extract_tree_and_stripper_match_reference():
    rng = random.Random(11)
    checked = raised = 0
    for inst in _instances():
        n, m = inst.node_count, len(inst.edges)
        for _ in range(12):
            sub = [e for e in range(m) if rng.random() < rng.choice((0.5, 0.8, 1.0))]
            req = frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
            try:
                want = extract_tree_reference(inst, sub, req)
            except ValueError:
                with pytest.raises(ValueError):
                    extract_tree(inst, sub, req)
                raised += 1
                continue
            assert extract_tree(inst, sub, req) == want
            checked += 1
            # a random spanning forest of the selection
            uf = UnionFind(n)
            order = sub[:]
            rng.shuffle(order)
            forest = [e for e in order if uf.union(inst.edges[e][0], inst.edges[e][1])]
            keep = frozenset(rng.sample(range(n), rng.randint(0, n)))
            assert strip_leaves(inst.edges, forest, keep) == strip_leaves_reference(inst, forest, keep)
    assert checked > 100 and raised > 10


def test_costed_tree_relabels_arbitrary_ids():
    tree = CostedTree(((-1, 0, F(1)), (0, 7, F(2)), (7, -5, F(3)), (0, 40, F(1))), frozenset({-1, -5}))
    assert prune_nonterminal_leaves(tree).edges == tree.edges[:3]
    with pytest.raises(TreeError, match="cyclic"):
        CostedTree(((-2, 9, F(1)), (9, 4, F(1)), (4, -2, F(1))), frozenset())
    with pytest.raises(TreeError, match="disconnected"):
        CostedTree(((-2, 9, F(1)), (4, 5, F(1))), frozenset())
    with pytest.raises(TreeError, match="self-loop at 4"):
        CostedTree(((-2, 9, F(1)), (4, 4, F(1)), (9, -2, F(1))), frozenset())
    assert tree.adjacency[0] == (0, 1, 3)
