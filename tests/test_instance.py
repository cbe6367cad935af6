import dataclasses
import pickle
import random
import time
from fractions import Fraction as F

import pytest

from powertree.bench import run_solver, with_mode
from powertree.exact import SolverError, exact_min_power
from powertree.generators import GENERATOR_KINDS, generate
from powertree.instance import (
    Instance,
    MAX_COST_DIGITS,
    InstanceError,
    PowerTree,
    evaluate,
    format_cost,
    parse_cost,
    parse_instance,
    reduce_cost_to_power,
    serialize,
)
from oracles import (
    edge_power_reference,
    min_cost_tree_bruteforce,
    min_power_tree_bruteforce,
    node_powers_reference,
)


def test_parse_minimal():
    inst = parse_instance("nodes 2\nedge 0 1 5\nterminals 0 1\nroot 0\n")
    assert inst.node_count == 2
    assert inst.edges == ((0, 1, F(5)),)
    assert inst.terminals == frozenset({0, 1})
    assert inst.root == 0


def test_parse_root_not_terminal():
    text = "nodes 4\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\nterminals 0 1\nroot 3\n"
    with pytest.raises(InstanceError, match="not a terminal"):
        parse_instance(text)


def test_parse_decimal_cost_exact():
    inst = parse_instance("nodes 2\nedge 0 1 2.50\nterminals 0 1\nroot 0\n")
    assert inst.edges[0][2] == F(5, 2)


@pytest.mark.parametrize("text,pattern", [
    ("nodes 2\nedge 0 1\nterminals 0 1\nroot 0", "malformed line"),
    ("nodes 2\nedge 0 1 1\nedge 1 0 2\nterminals 0 1\nroot 0", "duplicate edge"),
    ("nodes 2\nedge 0 1 1\nterminals 0 5\nroot 0", "out of range"),
    ("nodes 4\nedge 0 1 1\nedge 2 3 1\nterminals 0 3\nroot 0", "disconnected"),
    # rejected before ten billion adjacency lists are allocated
    ("nodes 10000000000\nterminals 0\nroot 0\n", "line 1: 10000000000 nodes exceed the limit"),
])
def test_parse_diagnostics(text, pattern):
    with pytest.raises(InstanceError, match=pattern):
        parse_instance(text)


def test_oversized_cost_rejected_before_it_is_built():
    # "1e10000000" alone once took seconds to parse, and "1e1000000" parsed
    # to a number that format_cost could not print
    for token in ["1e10000000", "1e1000000", "1e4300", "1e-4300", "1e1_000_000",
                  "9" * 4301, "1/" + "7" * 4301, "." + "1" * 4301]:
        start = time.perf_counter()
        with pytest.raises(InstanceError, match=f"more than {MAX_COST_DIGITS} digits"):
            parse_cost(token)
        with pytest.raises(InstanceError, match=f"more than {MAX_COST_DIGITS} digits"):
            parse_instance(f"nodes 2\nedge 0 1 {token}\nterminals 0 1\nroot 0\n")
        assert time.perf_counter() - start < 1.0, token[:20]


def test_accepted_costs_round_trip():
    # the largest accepted numerators and denominators, and decimals whose
    # expansion would pass the digit limit (printed as p/q instead)
    for token in ["0", "2.50", "5/2", "1/3", "1e4299", "1e-4299", "9" * 4300, "." + "1" * 4299,
                  "1/" + "7" * 4300, "7" * 4300 + "/1024", "1/" + str(2**14000)]:
        value = parse_cost(token)
        assert parse_cost(format_cost(value)) == value, token[:20]


def test_unprintable_powers_rejected_at_parse():
    # a power of 2c would need 4301 digits; two coprime denominators multiply
    # into a 6001-digit common denominator of every sum of the two costs
    big = 10**3000
    for text in [f"nodes 2\nedge 0 1 {'9' * 4300}\nterminals 0 1\nroot 0\n",
                 f"nodes 3\nedge 0 1 1/{big + 7}\nedge 1 2 1/{big + 9}\nterminals 0 2\nroot 0\n"]:
        start = time.perf_counter()
        with pytest.raises(InstanceError, match=f"more than {MAX_COST_DIGITS} digits"):
            parse_instance(text)
        assert time.perf_counter() - start < 1.0


def test_accepted_instance_powers_print():
    # at the bounds: 2c = 10^4300 - 2, and a common denominator of 4300 digits
    half = (10**MAX_COST_DIGITS - 1) // 2
    den = 10**(MAX_COST_DIGITS - 1) + 1
    for text in [f"nodes 2\nedge 0 1 {half}\nterminals 0 1\nroot 0\n",
                 f"nodes 3\nedge 0 1 1/{den}\nedge 1 2 2/{den}\nterminals 0 2\nroot 0\n"]:
        tree = exact_min_power(parse_instance(text))
        record = tree.to_record()
        assert parse_cost(record["total_power"]) == tree.total_power


def test_edge_count_limit(monkeypatch):
    monkeypatch.setattr("powertree.instance.MAX_EDGES", 2)
    with pytest.raises(InstanceError, match="line 4: more than 2 edges"):
        parse_instance("nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 1\nterminals 0 2\nroot 0\n")


def test_evaluate_single_edge():
    inst = parse_instance("nodes 2\nedge 0 1 5\nterminals 0 1\nroot 0\n")
    tree = evaluate(inst, [0])
    assert tree.total_cost == 5
    assert tree.total_power == 10


def test_evaluate_star():
    text = "nodes 4\nedge 3 0 2\nedge 3 1 2\nedge 3 2 2\nterminals 0 1 2\nroot 0\n"
    tree = evaluate(parse_instance(text), [0, 1, 2])
    assert tree.total_cost == 6
    assert tree.total_power == 8


def test_evaluate_path():
    text = "nodes 3\nedge 0 1 1\nedge 1 2 3\nterminals 0 2\nroot 0\n"
    tree = evaluate(parse_instance(text), [0, 1])
    assert tree.total_cost == 4
    assert tree.total_power == 7
    assert tree.node_powers == {0: F(1), 1: F(3), 2: F(3)}


def test_tree_node_powers_match_stored_dict():
    # node powers are derived on access; they and the record must equal what
    # evaluate used to store, on every solver's trees
    single = Instance(2, ((0, 1, F(4)),), frozenset({1}), 1)
    cases = [(single, "steiner")] + [
        (with_mode(generate(kind, 3 if kind == "reduction-wrapped" else 6, 3, 18_000 + s, edge_prob=0.4), mode),
         mode)
        for kind in GENERATOR_KINDS for mode in ("steiner", "spanning") for s in range(2)
    ]
    for inst, mode in cases:
        for solver in ("irr", "exact", "mst", "steiner-cost"):
            tree = run_solver(inst, solver, mode, 3, 0, None)[0]
            want = node_powers_reference(inst, tree.edges)
            assert tree.node_powers == want
            assert tree.to_record("s", 1) == {
                "edges": list(tree.edges),
                "node_powers": {str(v): format_cost(p) for v, p in sorted(want.items())},
                "total_power": format_cost(tree.total_power),
                "total_cost": format_cost(tree.total_cost),
                "solver": "s",
                "seed": 1,
            }
            assert not hasattr(tree, "__dict__")
    assert run_solver(single, "exact", "steiner", 3, 0, None)[0].node_powers == {1: 0}


def test_tree_equality():
    text = "nodes 3\nedge 0 1 1\nedge 1 2 3\nedge 0 2 2\nterminals 0 1 2\nroot 0\n"
    inst = parse_instance(text)
    assert evaluate(inst, [1, 0]) == evaluate(inst, [0, 1])
    assert evaluate(inst, [0, 1]) != evaluate(inst, [0, 2])
    assert len({evaluate(inst, [1, 0]), evaluate(inst, [0, 1])}) == 1
    # across instances only edges, power and cost count, not node powers
    swapped = parse_instance(text.replace("edge 0 1 1", "edge 0 1 3").replace("edge 1 2 3", "edge 1 2 1"))
    assert evaluate(swapped, [0, 1]) == evaluate(inst, [0, 1])
    assert evaluate(swapped, [0, 1]).node_powers != evaluate(inst, [0, 1]).node_powers


def test_power_tree_keeps_only_edges_and_instance():
    assert [f.name for f in dataclasses.fields(PowerTree)] == ["edges", "instance"]


def test_tree_totals_equal_fraction_sums():
    # the int sums over `scale` must equal the Fraction sums of the costs on
    # every solver's trees, also when the common denominator passes 10^35
    primes = [p for p in range(2, 120) if all(p % q for q in range(2, p))]
    checked, widest = 0, 1
    for kind in GENERATOR_KINDS:
        for s in range(2):
            nodes = 4 if kind == "reduction-wrapped" else 6 + s
            base = generate(kind, nodes, 4, 18_000 + s, edge_prob=0.5, cost_max=9)
            rational = base.with_costs([c / (primes[e] * 10**12) for e, (_, _, c) in enumerate(base.edges)])
            widest = max(widest, rational.scale)
            for inst in (base, rational):
                for mode in ("steiner", "spanning"):
                    for solver in ("irr", "exact", "mst", "steiner-cost"):
                        try:
                            tree = run_solver(with_mode(inst, mode), solver, mode, 3, s, None)[0]
                        except SolverError:  # past the exact oracle's node guard
                            continue
                        power, cost = tree.total_power, tree.total_cost
                        assert type(power) is F and type(cost) is F
                        assert power == edge_power_reference(inst, tree.edges)
                        assert cost == sum((inst.edges[e][2] for e in tree.edges), F(0))
                        checked += 1
    # less the exact solves of the 8 spanning reduction-wrapped instances
    assert checked == len(GENERATOR_KINDS) * 2 * 2 * 2 * 4 - 8
    assert widest > 10**35


def test_tree_equality_compares_power_and_cost():
    # same edges and the same power 7, but costs 4 and 7/2
    a = evaluate(Instance(3, ((0, 1, F(1)), (1, 2, F(3))), frozenset({0, 2}), 0), [0, 1])
    b = evaluate(Instance(3, ((0, 1, F(7, 2)), (1, 2, F(0))), frozenset({0, 2}), 0), [0, 1])
    assert a.edges == b.edges and a.total_power == b.total_power == 7
    assert a != b
    c = evaluate(Instance(3, ((0, 1, F(1)), (1, 2, F(3))), frozenset({0, 1, 2}), 1), [1, 0])
    assert a == c and hash(a) == hash(c)


def test_tree_pickle_round_trip():
    inst = generate("uniform-random", 8, 4, 18_300, edge_prob=0.4, cost_max=7)
    tree = exact_min_power(inst)
    again = pickle.loads(pickle.dumps(tree))
    assert again == tree and hash(again) == hash(tree)
    assert again.instance == inst
    assert (again.total_power, again.total_cost, again.node_powers) == (
        tree.total_power, tree.total_cost, tree.node_powers)


def test_evaluate_errors():
    text = "nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 1\nterminals 0 2\nroot 0\n"
    inst = parse_instance(text)
    with pytest.raises(InstanceError, match="cyclic"):
        evaluate(inst, [0, 1, 2])
    with pytest.raises(InstanceError, match="span"):
        evaluate(inst, [0])


def test_power_between_cost_and_twice_cost():
    # 1000 seeded random trees, exact rational arithmetic
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        edges = []
        for i in range(1, n):
            edges.append((rng.randrange(i), i, F(rng.randint(0, 50), rng.randint(1, 7))))
        inst = Instance(n, tuple(edges), frozenset(range(n)), 0)
        tree = evaluate(inst, list(range(n - 1)))
        assert tree.total_cost <= tree.total_power <= 2 * tree.total_cost


def test_with_costs_equals_full_constructor():
    # with_costs skips the structure checks that costs cannot change; its
    # copy must equal the one the constructor builds and checks in full
    checked = 0
    for kind in GENERATOR_KINDS:
        for mode in ("steiner", "spanning"):
            for s in range(3):
                inst = with_mode(generate(kind, 4 if kind == "reduction-wrapped" else 7, 3, 26_000 + s,
                                          edge_prob=0.4), mode)
                rng = random.Random(s)
                primes = (3, 7, 11, 13)
                for fraction in (0, 0.5):
                    costs = [0 if rng.random() < fraction else c / primes[e % 4]
                             for e, (_, _, c) in enumerate(inst.edges)]
                    got = inst.with_costs(costs)
                    want = Instance(inst.node_count, tuple((u, v, F(c)) for (u, v, _), c in zip(inst.edges, costs)),
                                    inst.terminals, inst.root)
                    assert got == want, (kind, mode, s, fraction)
                    assert (got.edges, got.adjacency, got.scale, got.weights) == \
                        (want.edges, want.adjacency, want.scale, want.weights), (kind, mode, s, fraction)
                    assert all(type(c) is F for _, _, c in got.edges)
                    checked += 1
                costs = [c for _, _, c in inst.edges]
                with pytest.raises(InstanceError, match="length mismatch"):
                    inst.with_costs(costs[:-1])
                u, v, _ = inst.edges[-1]
                with pytest.raises(InstanceError, match=rf"negative cost on edge \({u},{v}\)"):
                    inst.with_costs(costs[:-1] + [F(-1, 2)])
    assert checked == 48


def test_serialize_round_trip():
    for seed in range(50):
        inst = generate("uniform-random", 6, 4, seed)
        assert parse_instance(serialize(inst)) == inst
    # non-terminating rationals survive via p/q form
    inst = Instance(2, ((0, 1, F(1, 3)),), frozenset({0, 1}), 0)
    assert parse_instance(serialize(inst)) == inst


def test_reduce_basic():
    inst = parse_instance("nodes 2\nedge 0 1 6\nterminals 0 1\nroot 0\n")
    red = reduce_cost_to_power(inst)
    assert red.node_count == 4
    assert [c for _, _, c in red.edges] == [F(0), F(3), F(0)]
    assert red.terminals == inst.terminals


def test_reduce_triangle_value():
    # triangle on {a,b,c}, costs 2,2,3, all terminals: min-cost spanning 4
    text = "nodes 3\nedge 0 1 2\nedge 1 2 2\nedge 0 2 3\nterminals 0 1 2\nroot 0\n"
    inst = parse_instance(text)
    assert min_cost_tree_bruteforce(inst, inst.terminals) == 4
    red = reduce_cost_to_power(inst)
    assert exact_min_power(red, "steiner").total_power == 4


def test_reduce_no_edges():
    inst = Instance(1, (), frozenset({0}), 0)
    assert reduce_cost_to_power(inst) == inst


def test_reduce_matches_brute_force_small():
    # exact min-power of output equals exact min-cost Steiner value of input
    for seed in range(12):
        rng = random.Random(300 + seed)
        n = rng.randint(3, 5)
        inst = generate("uniform-random", n, rng.randint(2, n), 300 + seed,
                        edge_prob=0.3, cost_max=8)
        red = reduce_cost_to_power(inst)
        want = min_cost_tree_bruteforce(inst, inst.terminals)
        got = min_power_tree_bruteforce(red, red.terminals)
        assert got == want


def test_generate_two_level():
    inst = generate("two-level", 6, 3, 7, low=0, high=1)
    assert all(c in (F(0), F(1)) for _, _, c in inst.edges)
    with pytest.raises(InstanceError, match="a < b"):
        generate("two-level", 6, 3, 7, low=2, high=1)


def test_generate_euclidean_squared_distances():
    inst = generate("euclidean-powerlaw", 5, 3, 1, exponent=2)
    # complete graph, integer squared distances of the seeded point set
    assert len(inst.edges) == 10
    rng = random.Random(1)
    rng.sample(range(5), 3)  # terminal draw precedes the point draw
    cells = rng.sample(range(50 * 50), 5)
    points = [(c % 50, c // 50) for c in cells]
    for u, v, cost in inst.edges:
        dx = points[u][0] - points[v][0]
        dy = points[u][1] - points[v][1]
        assert cost == dx * dx + dy * dy


def test_generate_deterministic():
    for kind in ("uniform-random", "euclidean-powerlaw", "two-level", "reduction-wrapped"):
        a = generate(kind, 6, 3, 11)
        b = generate(kind, 6, 3, 11)
        assert a == b


def test_generate_terminal_guard():
    with pytest.raises(InstanceError, match="terminal count"):
        generate("uniform-random", 3, 5, 0)


@pytest.mark.parametrize("kind, params, pattern", [
    ("uniform-random", dict(cost_max=0), "cost_max must be >= 1"),
    ("reduction-wrapped", dict(cost_max=-3), "cost_max must be >= 1"),
    ("euclidean-powerlaw", dict(grid=3), "a 3x3 grid has fewer than 10 points"),
    ("euclidean-powerlaw", dict(grid=0), "a 0x0 grid"),
    ("euclidean-powerlaw", dict(exponent=301), "past float range"),
    ("euclidean-powerlaw", dict(exponent=3000), f"more than {MAX_COST_DIGITS} digits"),
    ("euclidean-powerlaw", dict(exponent=-3000), f"more than {MAX_COST_DIGITS} digits"),
    ("euclidean-powerlaw", dict(exponent=10**400), f"more than {MAX_COST_DIGITS} digits"),
])
def test_generator_parameter_limits(kind, params, pattern):
    start = time.perf_counter()
    with pytest.raises(InstanceError, match=pattern):
        generate(kind, 10, 3, 1, **params)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("kind", ["uniform-random", "two-level", "reduction-wrapped"])
@pytest.mark.parametrize("edge_prob", [1.0000001, -0.5, float("nan")])
def test_generator_edge_prob_outside_unit_interval(kind, edge_prob):
    with pytest.raises(InstanceError, match=r"edge_prob must be in \[0, 1\]"):
        generate(kind, 6, 3, 1, edge_prob=edge_prob)


def test_generator_edge_prob_bounds_accepted():
    for kind in ("uniform-random", "two-level", "reduction-wrapped"):
        sparse = generate(kind, 6, 3, 1, edge_prob=0)
        dense = generate(kind, 6, 3, 1, edge_prob=1)
        assert len(sparse.edges) < len(dense.edges)
    assert len(generate("uniform-random", 6, 3, 1, edge_prob=1).edges) == 15
    # euclidean-powerlaw is complete and never reads edge_prob
    assert generate("euclidean-powerlaw", 6, 3, 1, edge_prob=2) == generate("euclidean-powerlaw", 6, 3, 1)


def test_generator_node_pair_limit():
    for kind in ("uniform-random", "euclidean-powerlaw", "two-level", "reduction-wrapped"):
        start = time.perf_counter()
        with pytest.raises(InstanceError, match="node pairs"):
            generate(kind, 200_000, 3, 1)
        assert time.perf_counter() - start < 1.0


def test_reduction_wrapped_within_file_limits():
    # 51,040 base edges would reduce to 102,400 nodes
    start = time.perf_counter()
    with pytest.raises(InstanceError, match="file limits"):
        generate("reduction-wrapped", 320, 3, 1, edge_prob=1.0)
    assert time.perf_counter() - start < 2.0


def test_generated_costs_that_would_not_print_are_rejected():
    # each cost prints, but a sum of them would pass the digit limit
    with pytest.raises(InstanceError, match="twice the total cost"):
        generate("two-level", 6, 3, 1, low=5 * 10**4299 - 1, high=5 * 10**4299)
    for exponent in (100, 101):  # large costs well inside the limits
        inst = generate("euclidean-powerlaw", 4, 2, 1, exponent=exponent)
        assert max(c for _, _, c in inst.edges) > 10**100
