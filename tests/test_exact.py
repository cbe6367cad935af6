import random
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

from powertree.bench import parse_config
from powertree.cli import build_parser
from powertree.exact import SolverError, _dreyfus_wagner, baseline_min_cost, exact_min_power
from powertree.generators import GENERATOR_KINDS, generate
from powertree.graph import connects, incidence
from powertree.instance import parse_instance, reduce_cost_to_power, serialize
from oracles import (
    dreyfus_wagner_reference,
    exact_min_power_first_reference,
    exact_min_power_reference,
    min_cost_tree_bruteforce,
    min_power_tree_bruteforce,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def leaves(instance, edge_ids) -> set[int]:
    return {x for x, ids in incidence(instance.edges, edge_ids).items() if len(ids) == 1}


def reduced_instances():
    """The 100 reduced instances of acceptance criterion 2 (up to 31 nodes)."""
    for seed in range(100):
        rng = random.Random(50_000 + seed)
        n = rng.randint(3, 8)
        inst = generate("uniform-random", n, rng.randint(2, n), 50_000 + seed,
                        edge_prob=0.15, cost_max=9)
        yield reduce_cost_to_power(inst)


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
    # two optima; the search includes the cheapest crossing edge first, by
    # (weight, id), so it reaches (0, 1) before (2, 3)
    text = "nodes 4\nedge 0 1 2\nedge 1 3 2\nedge 0 2 2\nedge 2 3 2\nterminals 0 3\nroot 0\n"
    tree = exact_min_power(parse_instance(text), "steiner")
    assert tree.edges == (0, 1)


def test_tie_rule_first_optimum_in_search_order():
    # (0, 2) and Prim's tree (1, 2, 3) both have power 8; the first descent
    # reaches Prim's tree, and no later tree improves on it
    text = ("nodes 4\nedge 0 1 3\nedge 0 2 2\nedge 1 3 2\nedge 2 3 1\n"
            "terminals 0 1 3\nroot 0\n")
    tree = exact_min_power(parse_instance(text), "steiner")
    assert tree.edges == (1, 2, 3)
    assert tree.total_power == 8


def test_steiner_leaves_are_terminals():
    # zero-cost edges to Steiner leaves tie with the tree without them;
    # test_matches_reference checks the leaves of every other result
    inst = generate("two-level", 6, 4, 504)
    tree = exact_min_power(inst, "steiner")
    assert tree.edges == (1, 2, 5)
    assert leaves(inst, tree.edges) <= inst.terminals


def test_readme_library_sketch(tmp_path, monkeypatch):
    code = re.search(r"## Library sketch\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    (tmp_path / "x.mpst").write_text(serialize(generate("two-level", 6, 4, 504)))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_examples_parse():
    # a renamed flag or key fails here instead of leaving the README stale
    text = README.read_text()
    cli_block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in cli_block.splitlines() if line.startswith("powertree ")]
    assert len(lines) == 13
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
    instance = re.search(r"### Instance files\n.*?```\n(.*?)```", text, re.S).group(1)
    assert parse_instance(instance).terminals == {0, 3}
    suite = re.search(r"### Benchmark suites\n.*?```\n(.*?)```", text, re.S).group(1)
    cfg = parse_config(suite)
    assert len(cfg.instances) == 2 and len(cfg.solvers) == 3


def test_matches_reference():
    # same power as the branch-and-bound that walked every tied optimum, and
    # the same edges as the one that recomputed its lower bound per branch;
    # the tree is a tree on the required nodes whose leaves are all required
    cases = [
        (generate(kind, nodes, 2 + nodes // 3, 16_000 + 100 * nodes + len(kind),
                  edge_prob=0.4, cost_max=4), mode, 12)
        for kind in GENERATOR_KINDS
        for nodes in (range(3, 5) if kind == "reduction-wrapped" else range(3, 13))
        for mode in ("steiner", "spanning")
    ]
    cases += [(reduced, "steiner", 40) for reduced in reduced_instances()]
    for inst, mode, guard in cases:
        if inst.node_count > guard:
            continue
        required = frozenset(range(inst.node_count)) if mode == "spanning" else inst.terminals
        tree = exact_min_power(inst, mode, node_guard=guard)
        want = exact_min_power_reference(inst, mode, node_guard=guard)
        assert tree.total_power == want.total_power
        assert tree.edges == exact_min_power_first_reference(inst, mode, node_guard=guard).edges
        assert connects(inst.node_count, [inst.edges[e] for e in tree.edges], required)
        assert leaves(inst, tree.edges) <= required


def test_matches_first_reference_on_zeroed_costs():
    # zeroed costs make tied optima common, and they are where the crossing
    # step's scan stops at a rise of 0: the first optimum must not move
    checked = 0
    for kind in GENERATOR_KINDS:
        for fraction in (0, 0.3, 0.6, 0.9):
            for s in range(6):
                nodes = 3 + s % 2 if kind == "reduction-wrapped" else 6 + s % 5
                base = generate(kind, nodes, 2 + s % 2, 24_000 + 100 * s + len(kind),
                                edge_prob=0.4, cost_max=4)
                if base.node_count > 12:
                    continue
                rng = random.Random(s)
                inst = base.with_costs([0 if rng.random() < fraction else c for _, _, c in base.edges])
                for mode in ("steiner", "spanning"):
                    want = exact_min_power_first_reference(inst, mode)
                    assert exact_min_power(inst, mode).edges == want.edges, (kind, fraction, s, mode)
                    checked += 1
    assert checked >= 100


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
