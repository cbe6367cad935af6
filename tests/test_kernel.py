"""The solvers compute on the instance's scaled int weights. Multiplying
every cost by one positive constant r must pick the same edges and scale
every power by exactly r, and the Fractions at the API must equal the
power of their own edges."""

from fractions import Fraction
from itertools import combinations
from math import lcm

from powertree.components import Component, enumerate_columns, min_power_component
from powertree.exact import SolverError, baseline_min_cost, exact_min_power
from powertree.generators import GENERATOR_KINDS, generate
from powertree.instance import Instance, evaluate
from powertree.pathpower import min_power_path

SCALES = (Fraction(1, 10**24), Fraction(7, 3), Fraction(10**6))


def kernel_instances():
    # euclidean distances to the odd exponent 3 are rounded to 6 decimals,
    # so their denominators reach 10^6 before any scaling
    for kind in GENERATOR_KINDS:
        for s in range(3):
            nodes = 4 if kind == "reduction-wrapped" else 6
            yield kind, s, generate(kind, nodes, 4, 19_000 + s, edge_prob=0.5, cost_max=9, exponent=3)


def restricted(inst: Instance, required) -> Instance:
    return Instance(inst.node_count, inst.edges, frozenset(required), min(required))


def solve_all(inst: Instance) -> dict:
    """Every solver's pick on `inst`: key -> (edges, power)."""
    out = {}
    for k in (3, 4):
        for col in enumerate_columns(inst, k):
            out["columns", k, tuple(sorted(col.terminal_set)), col.sink] = (col.edges, col.power)
    for a, b in combinations(sorted(inst.terminals), 2):
        comp = min_power_component(inst, {a, b}, 2)
        out["pair", a, b] = (comp.edges, comp.power)
        path = min_power_path(inst, a, b)
        out["path", a, b] = ((path.nodes, path.edges), path.power)
    for mode in ("steiner", "spanning"):
        for name, solve in (("exact", exact_min_power), ("baseline", baseline_min_cost)):
            try:
                tree = solve(inst, mode)
            except SolverError as exc:  # past the exact solver's node guard
                out[name, mode] = (str(exc), None)
                continue
            out[name, mode] = (tree.edges, tree.total_power)
            out[name, mode, "cost"] = (tree.edges, tree.total_cost)
    return out


def test_scaled_costs_pick_the_same_edges():
    checked = 0
    for kind, s, inst in kernel_instances():
        base = solve_all(inst)
        assert any(key[0] == "columns" and len(key[2]) == 4 for key in base), (kind, s)
        for r in SCALES:
            scaled = solve_all(inst.with_costs([c * r for _, _, c in inst.edges]))
            assert scaled.keys() == base.keys(), (kind, s, r)
            for key, (edges, power) in base.items():
                got_edges, got_power = scaled[key]
                assert got_edges == edges, (kind, s, r, key)
                assert got_power == (None if power is None else power * r), (kind, s, r, key)
                checked += 1
    assert checked >= 2000


def test_api_powers_are_fractions_of_their_edges():
    for kind, s, inst in kernel_instances():
        for r in SCALES:
            scaled = inst.with_costs([c * r for _, _, c in inst.edges])
            single = min(scaled.terminals)
            singles = [min_power_component(scaled, {single}, 1)]
            for col in list(enumerate_columns(scaled, 4)) + singles:
                assert isinstance(col, Component) and type(col.power) is Fraction, (kind, s, r)
                assert col.power == evaluate(restricted(scaled, col.terminal_set), col.edges).total_power, (kind, s, r)
            for a, b in combinations(sorted(scaled.terminals), 2):
                path = min_power_path(scaled, a, b)
                assert type(path.power) is Fraction, (kind, s, r)
                assert path.power == evaluate(restricted(scaled, {a, b}), path.edges).total_power, (kind, s, r)


def test_weights_are_costs_times_scale():
    for kind, s, inst in kernel_instances():
        for r in (Fraction(1),) + SCALES:
            scaled = inst.with_costs([c * r for _, _, c in inst.edges])
            assert scaled.scale == lcm(*(c.denominator for _, _, c in scaled.edges)), (kind, s, r)
            assert all(type(w) is int for w in scaled.weights), (kind, s, r)
            assert [Fraction(w, scaled.scale) for w in scaled.weights] == [c for _, _, c in scaled.edges]
