import json
import random
import sys
from fractions import Fraction as F

import pytest

from powertree.decomposition import (
    Decomposition,
    attach_dummy_leaves,
    bounded_degree_decompose,
    component_graph,
    h_power_decompose,
    level_cut_parts,
)
from powertree.cli import main
from powertree.instance import parse_instance
from powertree.trees import CostedTree, TreeError, random_full_component

from oracles import bounded_degree_decompose_reference


def degree_bound_factor(delta: int) -> F:
    return 1 + F(2, -(-delta // 2) - 1)


def edge_keys(edges):
    return {(min(u, v), max(u, v)) for u, v, _ in edges}


# ---------------------------------------------------------------------------
# attach_dummy_leaves


def test_attach_single_edge():
    tree = CostedTree(((0, 1, F(4)),), frozenset({0, 1}))
    full = attach_dummy_leaves(tree)
    costs = sorted(c for _, _, c in full.edges)
    assert costs == [F(0), F(0), F(4)]
    assert full.terminals == frozenset({2, 3})
    assert set(full.leaves()) == {2, 3}


def test_attach_uniform_rule():
    # terminals already leaves; the rule still applies
    tree = CostedTree(((0, 1, F(2)), (1, 2, F(3))), frozenset({0, 2}))
    full = attach_dummy_leaves(tree)
    assert len(full.edges) == 4
    assert full.terminals == frozenset({3, 4})


def test_attach_preserves_power_under_contraction():
    for seed in range(100):
        tree = random_full_component(20_000 + seed, terminal_count=6)
        full = attach_dummy_leaves(tree)
        # cost-0 pendants never change any node's max
        assert full.power() == tree.power()
        dec = bounded_degree_decompose(full, 3)
        # contracting the dummy edges back gives a decomposition of the
        # original tree with identical power
        contracted_total = F(0)
        dummies = edge_keys(full.edges) - edge_keys(tree.edges)
        for part in dec.parts:
            kept = tuple(e for e in part.edges if (min(e[0], e[1]), max(e[0], e[1])) not in dummies)
            if kept:
                contracted_total += CostedTree(kept, frozenset()).power()
        assert contracted_total == dec.total_power


# ---------------------------------------------------------------------------
# bounded-degree decomposition


def fig1_tree() -> CostedTree:
    # worked instance: f=0 (root leaf), r-node=1, v=2, s4=3, s2=4,
    # a=5, b=6, c=7, d=8, e=9
    edges = (
        (3, 5, F(6)), (3, 6, F(3)), (4, 7, F(8)),
        (2, 3, F(1)), (2, 4, F(2)), (2, 8, F(4)),
        (1, 2, F(5)), (1, 9, F(5)), (1, 0, F(5)),
    )
    return CostedTree(edges, frozenset({0, 5, 6, 7, 8, 9}))


def test_bounded_degree_worked_example():
    tree = fig1_tree()
    dec = bounded_degree_decompose(tree, 3)
    assert len(dec.parts) == 2
    first, second = dec.parts
    assert first.terminals == frozenset({5, 6, 7})       # {a, b, c}
    assert second.terminals == frozenset({0, 6, 8, 9})   # {f, b, d, e}
    # the appended path P_1 runs through the cost-1 child: v-s4, s4-b
    assert {(2, 3), (3, 6)} <= edge_keys(second.edges)
    assert component_graph(dec).is_tree


def test_bounded_degree_no_split_needed():
    tree = random_full_component(31, terminal_count=4)
    # a star-ish tiny component already within the cap
    delta = max(tree.degree(v) for v in tree.nodes)
    dec = bounded_degree_decompose(tree, max(3, delta))
    assert len(dec.parts) == 1
    assert dec.total_power == tree.power()


def test_bounded_degree_bound_500_components():
    for seed in range(500):
        tree = random_full_component(40_000 + seed)
        power = tree.power()
        for delta in (3, 4, 5):
            dec = bounded_degree_decompose(tree, delta)
            assert dec.total_power <= degree_bound_factor(delta) * power
            assert component_graph(dec).is_tree
            assert edge_keys(tree.edges) <= set().union(
                *(edge_keys(p.edges) for p in dec.parts)
            )
            for part in dec.parts:
                for node in part.nodes:
                    assert part.degree(node) <= delta


def test_bounded_degree_split_copy_degree_range():
    for seed in range(60):
        tree = random_full_component(41_000 + seed, terminal_count=14)
        src_deg = {v: tree.degree(v) for v in tree.nodes}
        for delta in (3, 4):
            dec = bounded_degree_decompose(tree, delta)
            for part in dec.parts:
                for node in part.nodes:
                    if src_deg[node] > delta:  # a split-node copy
                        assert 2 <= part.degree(node) <= delta


def test_delta_guard():
    with pytest.raises(TreeError, match="delta"):
        bounded_degree_decompose(fig1_tree(), 2)


def test_requires_full_component():
    with pytest.raises(TreeError, match="internal terminal|attach"):
        bounded_degree_decompose(
            CostedTree(((0, 1, F(1)), (1, 2, F(1))), frozenset({0, 1, 2})), 3
        )


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_tree_edge_ids_outside_range_are_rejected(bad):
    inst = parse_instance("nodes 4\nedge 0 1 1\nedge 1 2 2\nedge 2 3 3\nterminals 0 3\nroot 0\n")
    assert CostedTree.from_instance(inst, [0, 1, 2]).terminals == {0, 3}
    with pytest.raises(TreeError, match=rf"edge id {bad} outside \[0, 3\)"):
        CostedTree.from_instance(inst, [0, bad])


@pytest.mark.parametrize("command, options", [
    (["analyze", "classify"], []),
    (["decompose"], ["--mode", "degree", "--delta", "3"]),
])
@pytest.mark.parametrize("ids, bad", [("-1 -2", -1), ("0 1 3", 3)])
def test_cli_tree_edge_ids_outside_range_exit_1(tmp_path, capsys, command, options, ids, bad):
    ipath = tmp_path / "x.mpst"
    ipath.write_text("nodes 4\nedge 0 1 1\nedge 1 2 2\nedge 2 3 3\nterminals 0 3\nroot 0\n")
    tpath = tmp_path / "t.txt"
    tpath.write_text(ids)
    assert main(command + [str(ipath), "--tree", str(tpath)] + options) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": f"edge id {bad} outside [0, 3)", "type": "TreeError"}


def test_empty_tree_is_tree_error():
    with pytest.raises(TreeError, match="empty tree"):
        bounded_degree_decompose(CostedTree((), frozenset()), 3)


DEPTH = 1500


def deep_caterpillar() -> CostedTree:
    """3,011 edges: leaf 0, hub 1 of degree 5 whose children are a caterpillar
    1,500 internal nodes deep and three cherries.

    The spine costs 0 and its legs cost 10 or more, except the two at the
    bottom, so the hub's cheapest descent runs down the whole spine.
    """
    spine = range(2, 2 + DEPTH)
    last = spine[-1]
    edges = [(0, 1, F(3)), (1, 2, F(3))]
    edges += [(v, v + 1, F(0)) for v in spine[:-1]]
    edges += [(v, v + DEPTH, F(10 + v % 7) if v < last else F(1)) for v in spine]
    edges.append((last, last + DEPTH + 1, F(2)))
    first_cherry = last + DEPTH + 2
    for i, center in enumerate(range(first_cherry, first_cherry + 3)):
        leaf = first_cherry + 3 + 2 * i
        edges += [(1, center, F(4 + i)), (center, leaf, F(5)), (center, leaf + 1, F(6))]
    tree = CostedTree(tuple(edges), frozenset())
    return CostedTree(tree.edges, frozenset(tree.leaves()))


def test_deep_caterpillar_decomposes():
    tree = deep_caterpillar()
    assert len(tree.edges) == 3011 and tree.degree(1) == 5
    dec = bounded_degree_decompose(tree, 3)
    assert component_graph(dec).is_tree
    assert all(part.degree(v) <= 3 for part in dec.parts for v in part.nodes)
    # the first block's reconnecting path runs the whole spine into the second part
    assert len(dec.parts) == 3 and len(dec.parts[1].edges) > DEPTH
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * DEPTH)
    try:
        assert dec == bounded_degree_decompose_reference(tree, 3)
    finally:
        sys.setrecursionlimit(limit)
    hdec = h_power_decompose(tree, 3)
    assert hdec.total_power <= (1 + F(14, 3)) * tree.power()
    assert all(len(part.terminals) <= 27 for part in hdec.parts)


def test_cli_decompose_deep_caterpillar(tmp_path, capsys):
    tree = deep_caterpillar()
    ipath = tmp_path / "deep.mpst"
    ipath.write_text(
        f"nodes {len(tree.nodes)}\n"
        + "".join(f"edge {u} {v} {c}\n" for u, v, c in tree.edges)
        + f"terminals {' '.join(map(str, sorted(tree.terminals)))}\nroot 0\n"
    )
    tpath = tmp_path / "t.txt"
    tpath.write_text(" ".join(map(str, range(len(tree.edges)))))
    assert main(["decompose", str(ipath), "--tree", str(tpath), "--mode", "degree", "--delta", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["bound_holds"] and record["component_graph_is_tree"]


# ---------------------------------------------------------------------------
# level-cut / h^h decomposition


def fig2_tree() -> CostedTree:
    # contracted worked component: r=0 s1=1 v=2 s3=3 a=4 b=5 u=6 s7=7 c=8
    # s9=9 d=10 e=11 f=12 s13=13 g=14 h=15 i=16
    def e(u, v):
        return (u, v, F(1))

    edges = (
        e(0, 1), e(0, 2), e(1, 3), e(1, 4), e(2, 5), e(2, 6), e(3, 7), e(3, 8),
        e(6, 9), e(6, 10), e(7, 11), e(7, 12), e(9, 13), e(9, 14), e(13, 15), e(13, 16),
    )
    return CostedTree(edges, frozenset({4, 5, 8, 10, 11, 12, 14, 15, 16}))


def test_level_cut_worked_example():
    tree = fig2_tree()
    parts = level_cut_parts(tree, 3, 1)
    terminal_sets = sorted(sorted(p.terminals) for p in parts)
    assert terminal_sets == [[4, 8, 11, 12], [4, 15], [5, 10, 14, 16], [15, 16]]
    # node u=6 appears in exactly two of the parts
    u_parts = [p for p in parts if any(6 in (a, b) for a, b, _ in p.edges)]
    assert len(u_parts) == 2
    dec = Decomposition(tuple(parts), tree, sum((p.power() for p in parts), F(0)))
    assert component_graph(dec).is_tree
    # the part holding the appended path P(v) = v-u-s9-s13-h
    top = next(p for p in parts if sorted(p.terminals) == [4, 15])
    assert edge_keys(top.edges) == {(0, 1), (0, 2), (1, 4), (2, 6), (6, 9), (9, 13), (13, 15)}


def test_h_power_small_tree_identity():
    tree = random_full_component(50, terminal_count=8)  # 8 <= 27 terminals
    dec = h_power_decompose(tree, 3, "best")
    stage1 = bounded_degree_decompose(tree, 3)
    assert dec.total_power == stage1.total_power
    assert len(dec.parts) == len(stage1.parts)


def test_h_power_bound_500_components():
    h = 3
    avg_ok = 0
    total = 0
    for seed in range(500):
        tree = random_full_component(60_000 + seed, terminal_count=28 + seed % 22)
        power = tree.power()
        dec = h_power_decompose(tree, h, "best")
        assert dec.total_power <= (1 + F(14, h)) * power
        assert component_graph(dec).is_tree
        for part in dec.parts:
            assert len(part.terminals) <= h**h
            assert edge_keys(part.edges) <= edge_keys(tree.edges)
        if seed < 150:
            stage1 = bounded_degree_decompose(tree, h)
            totals = [h_power_decompose(tree, h, q).total_power for q in range(h)]
            total += 1
            if sum(totals, F(0)) / h <= (1 + F(2, h)) * stage1.total_power:
                avg_ok += 1
    assert avg_ok >= 0.95 * total


def test_h_guard():
    with pytest.raises(TreeError, match="h must"):
        h_power_decompose(fig2_tree(), 2)


@pytest.mark.parametrize("q, message", [
    (7, r"q must be in \[0, 2\], got 7"),
    (-2, r"q must be in \[0, 2\], got -2"),
    (True, "q must be an int or 'best', got True"),
    ("x", "q must be an int or 'best', got 'x'"),
])
def test_h_power_checks_q(q, message):
    # checked up front, though no part here is big enough to be level-cut
    tree = random_full_component(5, terminal_count=8)
    with pytest.raises(TreeError, match=message):
        h_power_decompose(tree, 3, q)
    with pytest.raises(TreeError, match="h must"):
        h_power_decompose(tree, 2, q)


def test_h_power_without_level_cut_is_stage_one():
    # no stage-1 part has more than h^h terminals: every offset gives stage
    # 1 and "best" reports offset 0, also at an h whose h^h is never built
    tree = random_full_component(5, terminal_count=8)
    for h in (3, 10**5):
        stage1 = bounded_degree_decompose(tree, h)
        dec = h_power_decompose(tree, h, "best")
        assert (dec.parts, dec.total_power, dec.q) == (stage1.parts, stage1.total_power, 0)
        assert h_power_decompose(tree, h, 2).q == 2


# ---------------------------------------------------------------------------
# component graph


def test_component_graph_single_part():
    tree = random_full_component(70, terminal_count=4)
    dec = Decomposition((tree,), tree, tree.power())
    graph = component_graph(dec)
    assert graph.is_tree
    assert len(graph.edges) == 4


def test_component_graph_shared_two_terminals_cycle():
    tree = fig1_tree()
    part = CostedTree(((3, 5, F(6)), (3, 6, F(3))), frozenset({5, 6}))
    dec = Decomposition((part, part), tree, 2 * part.power())
    assert not component_graph(dec).is_tree
