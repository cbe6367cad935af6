import random
from fractions import Fraction as F

import pytest

from powertree.generators import GENERATOR_KINDS, generate
from powertree.instance import Instance, parse_instance
from powertree.pathpower import PathError, capped_state_search, min_power_path
from oracles import capped_state_search_reference, min_power_path_bruteforce


def test_single_edge():
    inst = parse_instance("nodes 2\nedge 0 1 5\nterminals 0 1\nroot 0\n")
    res = min_power_path(inst, 0, 1)
    assert res.nodes == (0, 1)
    assert res.power == 10


def test_detour_beats_direct():
    text = "nodes 3\nedge 0 1 1\nedge 1 2 3\nedge 0 2 5\nterminals 0 2\nroot 0\n"
    res = min_power_path(parse_instance(text), 0, 2)
    assert res.nodes == (0, 1, 2)
    assert res.power == 7
    assert min_power_path_bruteforce(parse_instance(text), 0, 2) == 7


def test_direct_beats_detour():
    text = "nodes 3\nedge 0 1 4\nedge 1 2 4\nedge 0 2 5\nterminals 0 2\nroot 0\n"
    res = min_power_path(parse_instance(text), 0, 2)
    assert res.nodes == (0, 2)
    assert res.power == 10
    assert min_power_path_bruteforce(parse_instance(text), 0, 2) == 10


def test_errors():
    inst = parse_instance("nodes 3\nedge 0 1 1\nterminals 0 1\nroot 0\n")
    with pytest.raises(PathError, match="differ"):
        min_power_path(inst, 0, 0)
    with pytest.raises(PathError, match="unreachable"):
        min_power_path(inst, 0, 2)


def test_oracle_equivalence_200_graphs():
    for seed in range(200):
        rng = random.Random(1000 + seed)
        n = rng.randint(3, 7)
        inst = generate("uniform-random", n, 2, 1000 + seed, edge_prob=0.5, cost_max=9)
        want = min_power_path_bruteforce(inst, 0, n - 1)
        got = min_power_path(inst, 0, n - 1).power
        assert got == want, (seed, got, want)


def test_lowering_an_edge_never_increases_power():
    for seed in range(40):
        inst = generate("uniform-random", 6, 2, 2000 + seed, edge_prob=0.5, cost_max=9)
        base = min_power_path(inst, 0, 5).power
        rng = random.Random(seed)
        eid = rng.randrange(len(inst.edges))
        u, v, c = inst.edges[eid]
        lowered = list(cc for _, _, cc in inst.edges)
        lowered[eid] = c / 2
        assert min_power_path(inst.with_costs(lowered), 0, 5).power <= base


def test_symmetry():
    for seed in range(40):
        inst = generate("uniform-random", 7, 2, 3000 + seed, edge_prob=0.5, cost_max=9)
        assert min_power_path(inst, 0, 6).power == min_power_path(inst, 6, 0).power


def test_deterministic_tie_break():
    # two equal-power parallel routes; the smaller node sequence wins
    text = "nodes 4\nedge 0 1 2\nedge 1 3 2\nedge 0 2 2\nedge 2 3 2\nterminals 0 3\nroot 0\n"
    inst = parse_instance(text)
    res = min_power_path(inst, 0, 3)
    assert res.nodes == (0, 1, 3)


def test_capped_state_search_matches_reference():
    # every state, label, node path, edge path and the key order, in scaled
    # units; zeroed costs make many equal-power labels, caps 0 and positive
    for kind in GENERATOR_KINDS:
        for s in range(3):
            nodes = 3 + s % 2 if kind == "reduction-wrapped" else 6 + s
            base = generate(kind, nodes, 2, 15_000 + 100 * s + len(kind), edge_prob=0.5, cost_max=6)
            rng = random.Random(15_000 + s)
            for zeroed in (0.0, 0.3, 0.6, 0.9):
                inst = base.with_costs([F(0) if rng.random() < zeroed else c for _, _, c in base.edges])
                for src in range(inst.node_count):
                    far = {(src + 1) % inst.node_count, (src + 3) % inst.node_count} - {src}
                    for cap in (0, max(inst.weights) // 2 + 1):
                        for forbidden in (None, frozenset(far)):
                            got = capped_state_search(inst, src, cap, forbidden)
                            want = capped_state_search_reference(inst, src, F(cap, inst.scale), forbidden)
                            assert list(got.items()) == [
                                (state, (power * inst.scale, n, path_nodes, path_edges))
                                for state, (power, n, path_nodes, path_edges) in want.items()
                            ], (kind, s, zeroed, src, cap, forbidden)
