import random
from fractions import Fraction as F

import pytest

import powertree.irr as irr_module
from oracles import irr_solve_reference
from powertree.bench import with_mode
from powertree.components import ComponentError
from powertree.exact import exact_min_power
from powertree.generators import GENERATOR_KINDS, generate
from powertree.instance import Instance, evaluate, parse_instance
from powertree.irr import IrrError, irr_solve, prune, zero_power_tree_exists


def spanning(instance: Instance) -> Instance:
    return Instance(
        instance.node_count, instance.edges,
        frozenset(range(instance.node_count)), instance.root,
    )


# ---------------------------------------------------------------------------
# halting condition


def test_zero_tree_all_positive():
    inst = parse_instance("nodes 2\nedge 0 1 3\nterminals 0 1\nroot 0\n")
    assert not zero_power_tree_exists(inst)


def test_zero_tree_all_zero():
    inst = parse_instance("nodes 3\nedge 0 1 0\nedge 1 2 0\nterminals 0 1 2\nroot 0\n")
    assert zero_power_tree_exists(inst)


def test_zero_tree_split_clusters():
    text = "nodes 4\nedge 0 1 0\nedge 2 3 0\nedge 1 2 5\nterminals 0 3\nroot 0\n"
    assert not zero_power_tree_exists(parse_instance(text))


# ---------------------------------------------------------------------------
# prune


def test_prune_keeps_clean_tree():
    inst = parse_instance("nodes 3\nedge 0 1 1\nedge 1 2 2\nterminals 0 1 2\nroot 0\n")
    tree = prune(inst, [0, 1])
    assert tree.edges == (0, 1)


def test_prune_drops_cycle_edge():
    # a tree plus one redundant zero-cost edge closing a cycle
    text = "nodes 3\nedge 0 1 2\nedge 1 2 3\nedge 0 2 0\nterminals 0 1 2\nroot 0\n"
    inst = parse_instance(text)
    tree = prune(inst, [0, 1, 2])
    before = evaluate(inst, [0, 1]).total_power
    assert len(tree.edges) == 2
    assert tree.total_power <= before + inst.cost(2) * 2


def test_prune_random_edge_sets():
    for seed in range(100):
        rng = random.Random(30_000 + seed)
        n = rng.randint(4, 8)
        inst = generate("uniform-random", n, rng.randint(2, n), 30_000 + seed,
                        edge_prob=0.5, cost_max=9)
        # a random connected superset of some spanning structure
        ids = sorted(rng.sample(range(len(inst.edges)), rng.randint(n - 1, len(inst.edges))))
        from powertree.instance import edge_set_power, InstanceError
        try:
            tree = prune(inst, ids)
        except ValueError:
            continue  # sampled set does not connect the terminals
        assert tree.total_power <= edge_set_power(inst.edges[e] for e in ids)
        assert tree.total_cost <= tree.total_power <= 2 * tree.total_cost


def test_prune_disconnected_raises():
    text = "nodes 4\nedge 0 1 1\nedge 2 3 1\nedge 1 2 1\nterminals 0 3\nroot 0\n"
    inst = parse_instance(text)
    with pytest.raises(ValueError, match="connect"):
        prune(inst, [0, 1])


# ---------------------------------------------------------------------------
# irr_solve


def test_all_zero_costs_halts_immediately():
    inst = parse_instance("nodes 3\nedge 0 1 0\nedge 1 2 0\nterminals 0 1 2\nroot 0\n")
    tree, trace = irr_solve(inst, 2, seed=4)
    assert trace.iterations == 1
    assert tree.total_power == 0


def test_two_terminal_single_iteration():
    inst = parse_instance("nodes 2\nedge 0 1 3\nterminals 0 1\nroot 0\n")
    tree, trace = irr_solve(inst, 2, seed=9)
    assert trace.iterations == 1
    assert tree.total_power == 6
    assert tree.total_power == exact_min_power(inst).total_power


def test_feasibility_trace_and_determinism():
    for seed in range(30):
        rng = random.Random(31_000 + seed)
        n = rng.randint(5, 8)
        inst = spanning(generate("uniform-random", n, n, 31_000 + seed,
                                 edge_prob=0.3, cost_max=10))
        tree, trace = irr_solve(inst, 3, seed=seed)
        # output spans R and is acyclic: evaluate() enforces both
        assert set(tree.node_powers) >= inst.terminals
        assert tree.total_cost <= tree.total_power <= 2 * tree.total_cost
        assert tree.total_power <= trace.sampled_power_total() or tree.total_power == 0
        assert trace.iterations >= 1
        tree2, trace2 = irr_solve(inst, 3, seed=seed)
        assert tree2.edges == tree.edges
        assert [r.sampled_terminals for r in trace2.records] == \
               [r.sampled_terminals for r in trace.records]


def test_single_terminal_sentinel_iteration():
    inst = Instance(2, ((0, 1, F(4)),), frozenset({0}), 0)
    tree, trace = irr_solve(inst, 3, seed=0)
    assert trace.iterations == 1
    assert trace.records[0].sampled_terminals is None
    assert tree.total_power == 0


def test_single_terminal_checks_k():
    inst = Instance(2, ((0, 1, F(4)),), frozenset({0}), 0)
    with pytest.raises(ComponentError, match="k must be"):
        irr_solve(inst, 9, seed=0)


def test_iteration_cap_raises_with_trace():
    inst = parse_instance("nodes 2\nedge 0 1 3\nterminals 0 1\nroot 0\n")
    # cap of 0 is rejected; force a cap that cannot complete via monkey route:
    with pytest.raises(ValueError):
        irr_solve(inst, 2, seed=0, max_iters=0)


def test_mean_ratio_close_to_optimal():
    ratios = []
    for seed in range(20):
        rng = random.Random(32_000 + seed)
        n = rng.randint(5, 8)
        inst = spanning(generate("uniform-random", n, n, 32_000 + seed,
                                 edge_prob=0.3, cost_max=10))
        exact = exact_min_power(inst, "spanning").total_power
        tree, _ = irr_solve(inst, 3, seed=seed)
        assert tree.total_power >= exact
        ratios.append(float(tree.total_power / exact))
    assert sum(ratios) / len(ratios) <= 1.55


@pytest.mark.parametrize("n, t", [(10, 6), (12, 8)])
def test_steiner_rounding_runs_and_stays_bounded(n, t):
    # |R| > k, so a solve samples and rounds over several iterations
    ratios, multi = [], 0
    for s in range(40):
        inst = generate("uniform-random", n, t, 30_000 + s, edge_prob=0.3)
        tree, trace = irr_solve(inst, 3, seed=s)
        exact = exact_min_power(inst, "steiner").total_power
        assert set(tree.node_powers) >= inst.terminals, s
        assert tree.total_cost <= tree.total_power <= 2 * tree.total_cost, s
        assert exact <= tree.total_power <= trace.sampled_power_total(), s
        ratios.append(float(tree.total_power / exact))
        multi += trace.iterations > 1
    assert sum(ratios) / len(ratios) <= 1.95  # acceptance criterion 8's bound
    assert multi > len(ratios) / 2


def test_loop_matches_reference(monkeypatch):
    # the loop redraws from the same LP while a draw zeroes nothing; every
    # record, every tree and the IrrError of a cap must match the loop that
    # recomputed the columns and the LP after each draw
    real = irr_module.enumerate_columns
    calls = 0

    def counting(instance, k):
        nonlocal calls
        calls += 1
        return real(instance, k)

    monkeypatch.setattr(irr_module, "enumerate_columns", counting)
    runs = redraws = capped = 0
    for kind in GENERATOR_KINDS:
        for mode in ("steiner", "spanning"):
            for k in (2, 3, 4):
                for s in range(3):
                    if kind == "reduction-wrapped":  # three edges per base edge; k=4 spanning is slow
                        nodes = terms = 2 if (mode, k) == ("spanning", 4) else 3
                        prob = 0.0
                    else:
                        nodes, terms, prob = 5 + s % 2, 3 + s % 2, 0.4
                    inst = with_mode(generate(kind, nodes, terms, 33_000 + s, edge_prob=prob, cost_max=3), mode)
                    for cap in (None, 2):
                        try:
                            want = irr_solve_reference(inst, k, s, max_iters=cap)
                        except IrrError as exc:
                            with pytest.raises(IrrError) as got:
                                irr_solve(inst, k, s, max_iters=cap)
                            assert [r.to_record() for r in got.value.trace.records] == \
                                [r.to_record() for r in exc.trace.records]
                            capped += 1
                            continue
                        calls = 0
                        tree, trace = irr_solve(inst, k, s, max_iters=cap)
                        assert tree == want[0] and tree.to_record() == want[0].to_record()
                        assert tree.total_power <= trace.sampled_power_total(), (kind, mode, k, s, cap)
                        records = [r.to_record() for r in trace.records]
                        assert records == [r.to_record() for r in want[1].records], (kind, mode, k, s, cap)
                        changed = sum(r.new_zero_edges > 0 for r in trace.records[:-1])
                        assert calls == 1 + changed
                        runs += 1
                        redraws += trace.iterations - 1 - changed
    assert runs >= 100 and capped >= 20 and redraws >= 100
