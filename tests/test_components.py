import random
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

import powertree.components as components_module
from oracles import (
    _labeled_trees_reference,
    all_cut_rows,
    component_four_reference,
    component_three_reference,
    enumerate_columns_reference,
    min_power_tree_bruteforce,
    row_support_reference,
    solve_lp_reference,
)
from powertree.bench import with_mode
from powertree.components import (
    ComponentError,
    enumerate_columns,
    min_power_component,
)
from powertree.generators import GENERATOR_KINDS, generate
from powertree.instance import Instance, evaluate, parse_instance
from powertree.irr import irr_solve
from powertree.lp import row_support, solve_lp
from powertree.pathpower import min_power_path


def zero_costs(inst: Instance, fraction: float, seed: int) -> Instance:
    """The instance with a seeded random `fraction` of its edge costs set to 0."""
    rng = random.Random(seed)
    return inst.with_costs([0 if rng.random() < fraction else c for _, _, c in inst.edges])


def test_pair_equals_min_power_path():
    for seed in range(25):
        inst = generate("uniform-random", 7, 4, 4000 + seed, edge_prob=0.5, cost_max=9)
        terms = sorted(inst.terminals)
        comp = min_power_component(inst, {terms[0], terms[1]}, 2)
        assert comp.power == min_power_path(inst, terms[0], terms[1]).power


def test_star_component():
    text = "nodes 4\nedge 0 3 1\nedge 1 3 1\nedge 2 3 1\nterminals 0 1 2\nroot 0\n"
    comp = min_power_component(parse_instance(text), {0, 1, 2}, 3)
    assert comp.power == 4
    assert sorted(comp.edges) == [0, 1, 2]


def test_oracle_equivalence_q3():
    for seed in range(120):
        rng = random.Random(4000 + seed)
        n = rng.randint(4, 7)
        tcount = rng.randint(3, n)
        inst = generate("uniform-random", n, tcount, 4000 + seed, edge_prob=0.5, cost_max=9)
        terms = sorted(inst.terminals)
        if len(terms) < 3:
            continue
        Q = frozenset(rng.sample(terms, 3))
        comp = min_power_component(inst, Q, 3)
        want = min_power_tree_bruteforce(
            Instance(inst.node_count, inst.edges, Q, min(Q)), Q
        )
        assert comp.power == want, (seed, sorted(Q))


def test_oracle_equivalence_q4_small():
    # |Q| = 4 goes through the general topology machinery
    checked = 0
    for seed in range(60):
        rng = random.Random(5000 + seed)
        n = rng.randint(5, 7)
        inst = generate("uniform-random", n, rng.randint(4, n), 5000 + seed,
                        edge_prob=0.5, cost_max=9)
        terms = sorted(inst.terminals)
        if len(terms) < 4:
            continue
        Q = frozenset(rng.sample(terms, 4))
        comp = min_power_component(inst, Q, 4)
        want = min_power_tree_bruteforce(
            Instance(inst.node_count, inst.edges, Q, min(Q)), Q
        )
        assert comp.power == want, (seed, sorted(Q))
        checked += 1
    assert checked >= 30


def test_component_power_matches_evaluate():
    # zeroed costs make equal-power spiders and legs common
    for seed in range(40):
        rng = random.Random(6000 + seed)
        base = generate("uniform-random", 7, 4, 6000 + seed, edge_prob=0.5, cost_max=9)
        Q = frozenset(rng.sample(sorted(base.terminals), 3))
        for fraction in (0, 0.3, 0.6, 0.9):
            inst = zero_costs(base, fraction, seed)
            comp = min_power_component(inst, Q, 3)
            restricted = Instance(inst.node_count, inst.edges, Q, min(Q))
            assert evaluate(restricted, comp.edges).total_power == comp.power, (seed, fraction)


def test_component_three_matches_reference():
    checked = 0
    for kind in GENERATOR_KINDS:
        for fraction in (0, 0.3, 0.6, 0.9):
            for s in range(5):
                nodes = 4 + s % 2 if kind == "reduction-wrapped" else 6 + s % 3
                inst = zero_costs(generate(kind, nodes, 4 + s % 2, 16_000 + s, edge_prob=0.5, cost_max=3),
                                  fraction, s)
                for col in enumerate_columns(inst, 3):
                    if len(col.terminal_set) == 3 and col.sink == min(col.terminal_set):
                        want = component_three_reference(inst, col.terminal_set)
                        assert (col.edges, col.power) == (want.edges, want.power), (kind, fraction, s)
                        checked += 1
    assert checked >= 400


def four_set_cases():
    """Every generator kind with 0/30/60/90% of its costs zeroed, then dense
    graphs, where realizations that close cycles are common."""
    for kind in GENERATOR_KINDS:
        for fraction in (0, 0.3, 0.6, 0.9):
            for s in range(2):
                if kind == "reduction-wrapped":
                    nodes, terms = 4, 4
                elif kind == "euclidean-powerlaw":
                    nodes, terms = 6 + s, 5
                else:
                    nodes, terms = 7 + s, 4 + s
                inst = generate(kind, nodes, terms, 19_000 + s, edge_prob=0.5, cost_max=3)
                yield (kind, fraction, s), zero_costs(inst, fraction, s)
    for kind, nodes, terms in (("euclidean-powerlaw", 9, 5), ("euclidean-powerlaw", 10, 4),
                               ("uniform-random", 10, 5), ("uniform-random", 12, 4),
                               ("two-level", 10, 5), ("two-level", 12, 4)):
        yield (kind, nodes), generate(kind, nodes, terms, 19_100 + nodes, edge_prob=0.5)


def test_component_four_matches_reference():
    # the edge-count cycle test must accept exactly the unions the
    # union-find accepted, so edges and power agree, ties included
    checked = 0
    for case, inst in four_set_cases():
        for Q in combinations(sorted(inst.terminals), 4):
            comp = min_power_component(inst, Q, 4)
            want = component_four_reference(inst, frozenset(Q))
            assert (comp.edges, comp.power) == (want.edges, want.power), (case, Q)
            checked += 1
    assert checked >= 100


def test_component_at_least_cheapest_pair():
    for seed in range(40):
        rng = random.Random(7000 + seed)
        inst = generate("uniform-random", 7, 5, 7000 + seed, edge_prob=0.5, cost_max=9)
        terms = sorted(inst.terminals)
        Q = sorted(rng.sample(terms, 3))
        comp = min_power_component(inst, frozenset(Q), 3)
        cheapest_pair = min(
            min_power_path(inst, a, b).power
            for i, a in enumerate(Q) for b in Q[i + 1:]
        )
        assert comp.power >= cheapest_pair


def test_validation_errors():
    inst = parse_instance("nodes 4\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\nterminals 0 1 2\nroot 0\n")
    with pytest.raises(ComponentError, match="not terminals"):
        min_power_component(inst, {0, 3}, 2)
    with pytest.raises(ComponentError, match="k_cap"):
        min_power_component(inst, {0, 1}, 5)
    with pytest.raises(ComponentError, match="exceeds"):
        min_power_component(inst, {0, 1, 2}, 2)


def test_enumerate_columns_counts():
    text = "nodes 4\nedge 0 3 1\nedge 1 3 1\nedge 2 3 1\nterminals 0 1 2\nroot 0\n"
    inst = parse_instance(text)
    cols = enumerate_columns(inst, 3)
    assert len(cols) == 9  # 3 pairs x 2 sinks + 1 triple x 3 sinks
    pair = parse_instance("nodes 2\nedge 0 1 3\nterminals 0 1\nroot 0\n")
    cols2 = enumerate_columns(pair, 3)
    assert len(cols2) == 2
    assert cols2[0].power == cols2[1].power == 6


def test_enumerate_columns_k2_matches_paths():
    inst = generate("uniform-random", 7, 5, 8000, edge_prob=0.4, cost_max=9)
    for col in enumerate_columns(inst, 2):
        a, b = sorted(col.terminal_set)
        assert col.power == min_power_path(inst, a, b).power


def test_pair_component_equals_its_column():
    # low costs make equal-power paths common, so this checks the tie-break too
    for kind in GENERATOR_KINDS:
        for s in range(8):
            nodes = 4 if kind == "reduction-wrapped" else 6 + s % 3
            inst = generate(kind, nodes, 4, 15_000 + 100 * s + len(kind), edge_prob=0.5, cost_max=2)
            for col in enumerate_columns(inst, 2):
                comp = min_power_component(inst, col.terminal_set, 2)
                assert (comp.edges, comp.power) == (col.edges, col.power), (kind, s)


def test_column_guard():
    inst = generate("uniform-random", 40, 40, 1, edge_prob=0.1)
    with pytest.raises(ComponentError, match="guard"):
        enumerate_columns(inst, 4)


def column_cases():
    """Every generator kind in both modes with 0/30/60/90% of its costs
    zeroed; the second seed divides each cost by a small prime and 10^20, so
    the common denominator has more significant bits than a float holds."""
    for kind in GENERATOR_KINDS:
        for mode in ("steiner", "spanning"):
            for fraction in (0, 0.3, 0.6, 0.9):
                for s in range(2):
                    nodes, terms = 5 + s, 3 + s
                    if kind == "reduction-wrapped":  # three edges per base edge; k=4 spanning is slow
                        nodes = terms = 2 if mode == "spanning" else 3
                    inst = generate(kind, nodes, terms, 18_000 + s, edge_prob=0.5, cost_max=3)
                    if s:
                        inst = inst.with_costs([c / ((3, 7, 11, 13)[e % 4] * 10**20)
                                                for e, (_, _, c) in enumerate(inst.edges)])
                    yield (kind, mode, fraction, s), with_mode(zero_costs(inst, fraction, s), mode)


def test_column_set_matches_reference():
    # the column set must read back as the list of one Component per column
    # (Q, s) it replaced, in the same order, and the LP must see the same
    # prices and cut rows: its rows, x and objective history are equal floats
    checked = 0
    for case, inst in column_cases():
        for k in (2, 3, 4):
            want = enumerate_columns_reference(inst, k)
            got = enumerate_columns(inst, k)
            assert len(got) == len(want), (case, k)
            assert [(c.terminal_set, c.sink, c.edges, c.power) for c in got] == \
                [(c.terminal_set, c.sink, c.edges, c.power) for c in want], (case, k)
            lp_want = solve_lp_reference(inst, want)
            lp_got = solve_lp(inst, got)
            assert (lp_got.rows, lp_got.x, lp_got.objective_history) == \
                (lp_want.rows, lp_want.x, lp_want.objective_history), (case, k)
            for w in all_cut_rows(inst):
                assert row_support(got, w) == row_support_reference(want, w), (case, k, sorted(w))
            checked += len(want)
    assert checked >= 5000


def test_layout_is_complete_and_shared():
    # every terminal set connects, so a column set holds all sum_j C(|R|, j) * j
    # columns of the layout for |R| and k, shared by every instance with as
    # many terminals; its singleton rows are the cut rows of one terminal
    for k in (2, 3, 4):
        layouts = {}  # fewer |R| values than the cache holds
        for case, inst in column_cases():
            terms = sorted(inst.terminals)
            r = len(terms)
            cols = enumerate_columns(inst, k)
            assert len(cols) == sum(comb(r, j) * j for j in range(2, min(k, r) + 1)), (case, k)
            assert layouts.setdefault(r, cols.layout) is cols.layout, (case, k)
            for t, support in zip(terms, cols.layout.singletons):
                assert support.tolist() == row_support(cols, frozenset({t})), (case, k, t)
        assert len(layouts) >= 3


def test_layout_cache_stays_bounded():
    bound = components_module._layout.cache_info().maxsize
    assert bound == components_module._LAYOUTS
    for r in range(2, bound + 4):
        inst = with_mode(generate("uniform-random", r, 2, 18_500 + r, edge_prob=0.3), "spanning")
        assert len(enumerate_columns(inst, 2)) == r * (r - 1)
        assert components_module._layout.cache_info().currsize <= bound
    assert components_module._layout.cache_info().currsize == bound


def counting_tree_builds(monkeypatch) -> list[str]:
    """Log of every `extract_tree` call made by the components module."""
    calls: list[str] = []
    real = components_module.extract_tree

    def counted(*args, **kwargs):
        calls.append("extract_tree")
        return real(*args, **kwargs)

    monkeypatch.setattr(components_module, "extract_tree", counted)
    return calls


def test_trees_built_on_first_read(monkeypatch):
    calls = counting_tree_builds(monkeypatch)
    inst = generate("uniform-random", 8, 6, 18_100, edge_prob=0.4, cost_max=5)
    cols = enumerate_columns(inst, 3)
    assert calls == []
    spiders = [i for i, members in enumerate(cols.members) if len(members) == 3]
    assert len(spiders) == 20
    for i in spiders:
        start = cols.owner.index(i)
        before = len(calls)
        first, second = cols[start], cols[start + 1]
        assert len(calls) == before + 1
        assert (first.sink, second.sink) == cols.members[i][:2]
        assert first.edges == second.edges and first.power == second.power
    pairs = [cols[cols.owner.index(i)] for i, members in enumerate(cols.members) if len(members) == 2]
    assert len(pairs) == 15 and len(calls) == 20


def test_columns_index_as_a_list():
    inst = generate("uniform-random", 7, 5, 18_300, edge_prob=0.4, cost_max=5)
    cols = enumerate_columns(inst, 3)
    last = cols[len(cols) - 1]
    i, sink = cols.column(-1)
    assert (cols.sets[i], sink) == (last.terminal_set, last.sink)
    assert cols[-1] == last and cols[-len(cols)] == cols[0]
    with pytest.raises(IndexError):
        cols[len(cols)]
    with pytest.raises(IndexError):
        cols.column(-len(cols) - 1)
    assert list(cols) == [cols[j] for j in range(len(cols))]


def test_irr_builds_at_most_one_tree_per_iteration(monkeypatch):
    calls = counting_tree_builds(monkeypatch)
    iterations = 0
    for s in range(10):
        inst = with_mode(generate("uniform-random", 7, 4, 18_200 + s, edge_prob=0.5, cost_max=5), "spanning")
        before = len(calls)
        _, trace = irr_solve(inst, 3, seed=s)
        assert len(calls) - before <= trace.iterations, s
        iterations += trace.iterations
    assert 0 < len(calls) <= iterations


def test_topologies_decoded_once_per_process(monkeypatch):
    # the labeled trees depend only on |A|: |A| = 0, 1, 2 decode once each,
    # however many instances and 4-sets ask for them
    calls: list[tuple[int, int]] = []
    real = components_module._labeled_trees

    def counted(size, min_degree_from):
        calls.append((size, min_degree_from))
        return real(size, min_degree_from)

    monkeypatch.setattr(components_module, "_labeled_trees", counted)
    components_module._topologies.cache_clear()
    first = generate("uniform-random", 8, 4, 18_400, edge_prob=0.3)
    second = generate("uniform-random", 9, 5, 77, edge_prob=0.4)
    min_power_component(first, first.terminals, 4)
    assert calls == [(4, 4), (5, 4), (6, 4)]
    for subset in list(combinations(sorted(second.terminals), 4))[:2]:
        min_power_component(second, subset, 4)
    assert calls == [(4, 4), (5, 4), (6, 4)]


def test_topology_table_matches_reference():
    # 16, 13 and 6 topologies for |A| = 0, 1, 2, in Pruefer decode order
    for a_size, count in enumerate((16, 13, 6)):
        table = components_module._topologies(a_size)
        assert table == tuple(tuple(t) for t in _labeled_trees_reference(4 + a_size, 4))
        assert len(table) == count
        assert all(type(t) is tuple and all(type(e) is tuple for e in t) for t in table)
