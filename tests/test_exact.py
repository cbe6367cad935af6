import random
from fractions import Fraction as F

import pytest

from powertree.exact import SolverError, _dreyfus_wagner, baseline_min_cost, exact_min_power
from powertree.generators import GENERATOR_KINDS, generate
from powertree.instance import parse_instance, reduce_cost_to_power
from oracles import dreyfus_wagner_reference, min_cost_tree_bruteforce, min_power_tree_bruteforce


def test_triangle_all_terminals():
    text = "nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 2\nterminals 0 1 2\nroot 0\n"
    tree = exact_min_power(parse_instance(text), "spanning")
    assert tree.total_power == 3
    assert tree.edges == (0, 1)


def test_two_terminal_edge():
    tree = exact_min_power(parse_instance("nodes 2\nedge 0 1 5\nterminals 0 1\nroot 0\n"))
    assert tree.total_power == 10


def test_reduced_instance_equals_min_cost():
    inst = generate("uniform-random", 5, 3, 77, edge_prob=0.3, cost_max=9)
    reduced = reduce_cost_to_power(inst)
    got = exact_min_power(reduced, "steiner", node_guard=20).total_power
    assert got == min_cost_tree_bruteforce(inst, inst.terminals)


def test_against_independent_enumeration():
    for seed in range(60):
        rng = random.Random(2000 + seed)
        n = rng.randint(3, 6)
        inst = generate("uniform-random", n, rng.randint(1, n), 2000 + seed,
                        edge_prob=0.45, cost_max=9)
        want = min_power_tree_bruteforce(inst, inst.terminals)
        assert exact_min_power(inst, "steiner").total_power == want
    for seed in range(30):
        n = random.Random(3000 + seed).randint(3, 6)
        inst = generate("uniform-random", n, n, 3000 + seed, edge_prob=0.45, cost_max=9)
        want = min_power_tree_bruteforce(inst, frozenset(range(n)))
        assert exact_min_power(inst, "spanning").total_power == want


def test_node_guard():
    inst = generate("uniform-random", 13, 4, 5, edge_prob=0.2)
    with pytest.raises(SolverError, match="guard"):
        exact_min_power(inst)


def test_deterministic_tie_break():
    # two optima; the lexicographically smallest edge list wins
    text = "nodes 4\nedge 0 1 2\nedge 1 3 2\nedge 0 2 2\nedge 2 3 2\nterminals 0 3\nroot 0\n"
    tree = exact_min_power(parse_instance(text), "steiner")
    assert tree.edges == (0, 1)


def test_baseline_two_terminal():
    inst = parse_instance("nodes 2\nedge 0 1 5\nterminals 0 1\nroot 0\n")
    tree = baseline_min_cost(inst, "steiner")
    assert tree.total_power == 10
    exact = exact_min_power(inst, "steiner")
    assert tree.total_power <= 2 * exact.total_power


def test_mst_power_vs_oracle_on_path_instance():
    # path costs 1,1 vs direct edge 3/2: MST picks the two cost-1 edges;
    # the oracle confirms its power here (1+1+1 = 3) and the 2x chain
    text = "nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 1.5\nterminals 0 1 2\nroot 0\n"
    inst = parse_instance(text)
    mst = baseline_min_cost(inst, "spanning")
    assert mst.edges == (0, 1)
    assert mst.total_power == min_power_tree_bruteforce(inst, inst.terminals)
    exact = exact_min_power(inst, "spanning")
    assert exact.total_power <= mst.total_power <= 2 * exact.total_power


def test_mst_can_be_power_suboptimal():
    # found by search: the min-cost tree concentrates maxima on two nodes
    text = ("nodes 4\nedge 0 1 5\nedge 0 2 4\nedge 1 3 5\nedge 1 2 2\n"
            "edge 2 3 6\nterminals 0 1 2 3\nroot 0\n")
    inst = parse_instance(text)
    mst = baseline_min_cost(inst, "spanning")
    exact = exact_min_power(inst, "spanning")
    assert mst.total_power == 18
    assert exact.total_power == 17
    assert mst.total_power <= 2 * exact.total_power


def test_dreyfus_wagner_matches_brute_force():
    for seed in range(50):
        rng = random.Random(12_000 + seed)
        n = rng.randint(3, 6)
        inst = generate("uniform-random", n, rng.randint(2, n), 12_000 + seed,
                        edge_prob=0.5, cost_max=9)
        tree = baseline_min_cost(inst, "steiner")
        assert tree.total_cost == min_cost_tree_bruteforce(inst, inst.terminals)


def test_dreyfus_wagner_matches_reference():
    # same edges as the all-pairs implementation, ties included
    for kind in GENERATOR_KINDS:
        for s in range(15):
            nodes = 3 + s % 3 if kind == "reduction-wrapped" else 5 + s % 6
            inst = generate(kind, nodes, 2 + s % (nodes - 1), 14_000 + 100 * s + len(kind),
                            edge_prob=0.4, cost_max=4)
            assert _dreyfus_wagner(inst) == dreyfus_wagner_reference(inst), (kind, s)


def test_baseline_power_ratio_at_most_two():
    for seed in range(120):
        rng = random.Random(13_000 + seed)
        n = rng.randint(3, 8)
        inst = generate("uniform-random", n, n, 13_000 + seed, edge_prob=0.35, cost_max=9)
        exact = exact_min_power(inst, "spanning").total_power
        base = baseline_min_cost(inst, "spanning").total_power
        assert base <= 2 * exact


def test_metric_closure_fallback():
    # above 12 terminals the Steiner baseline is the metric-closure heuristic
    inst = generate("uniform-random", 14, 13, 17, edge_prob=0.3, cost_max=9)
    tree = baseline_min_cost(inst, "steiner")
    assert tree.total_power > 0
    assert inst.terminals <= {x for e in tree.edges for x in inst.edges[e][:2]}
