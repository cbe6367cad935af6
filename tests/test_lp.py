import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from powertree.bench import with_mode
from powertree.components import enumerate_columns
from powertree.decomposition import attach_dummy_leaves, bounded_degree_decompose, component_graph
from powertree.exact import exact_min_power
from powertree.generators import GENERATOR_KINDS, generate
from powertree.instance import Instance, parse_instance
from powertree.irr import irr_solve
from powertree.lp import LpError, _DualSimplex, _FlowNet, lp_core_solve, row_support, separate, solve_lp
from powertree.trees import CostedTree
from oracles import DualSimplexReference, all_cut_rows, lp_vertex_enumeration


# ---------------------------------------------------------------------------
# lp_core_solve


def test_core_single_column():
    x, value = lp_core_solve([[0]], 1, [6.0])
    assert x == {0: pytest.approx(1.0)}
    assert value == pytest.approx(6.0)


def test_core_dominated_column():
    # identical coverage; mass lands on the cheaper column
    x, value = lp_core_solve([[0, 1]], 2, [4.0, 6.0])
    assert value == pytest.approx(4.0)
    assert x.get(0, 0.0) == pytest.approx(1.0)
    assert x.get(1, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_core_infeasible():
    with pytest.raises(LpError, match="infeasible"):
        lp_core_solve([[0], []], 1, [1.0])


@pytest.mark.parametrize("rows", [[[0, -2]], [[0, 5]], [[-1]]])
def test_core_rejects_support_index_out_of_range(rows):
    with pytest.raises(LpError, match="outside"):
        lp_core_solve(rows, 1, [1.0])


def test_core_matches_vertex_enumeration():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        supports = []
        for _ in range(m):
            sup = [j for j in range(n) if rng.random() < 0.5]
            if not sup:
                sup = [rng.randrange(n)]
            supports.append(sup)
        costs = [F(rng.randint(1, 9)) for _ in range(n)]
        want = lp_vertex_enumeration(supports, n, costs)
        got_x, got = lp_core_solve(supports, n, [float(c) for c in costs])
        assert want is not None
        assert got == pytest.approx(float(want), abs=1e-7)


# ---------------------------------------------------------------------------
# separation oracle


def test_max_flow_stops_at_enough():
    # two disjoint paths of capacity 0.5 each from node 0 to node 3
    net = _FlowNet(4)
    for u, v in ((0, 1), (1, 3), (0, 2), (2, 3)):
        net.add(u, v, 0.5)
    cap0 = list(net.cap)
    assert net.max_flow(0, 3, cap0, 0.4) == pytest.approx(0.5)
    # below the limit the flow is exact and so is the cut side
    assert net.max_flow(0, 3, cap0, 2.0) == pytest.approx(1.0)
    assert net.reachable(0) == {0}


def test_separate_zero_mass():
    inst = parse_instance("nodes 2\nedge 0 1 3\nterminals 0 1\nroot 0\n")
    cols = enumerate_columns(inst, 2)
    w = separate(inst, cols, {}, 1e-7)
    assert w == frozenset({1})


def test_separate_saturated_pair():
    inst = parse_instance("nodes 2\nedge 0 1 3\nterminals 0 1\nroot 0\n")
    cols = enumerate_columns(inst, 2)
    root_sink = next(j for j, c in enumerate(cols) if c.sink == inst.root)
    assert separate(inst, cols, {root_sink: 1.0}, 1e-7) is None


def test_separate_agrees_with_exhaustive_rows():
    for seed in range(30):
        rng = random.Random(9000 + seed)
        inst = generate("uniform-random", rng.randint(5, 7), 5, 9000 + seed,
                        edge_prob=0.5, cost_max=9)
        cols = enumerate_columns(inst, 3)
        x = {j: rng.random() * 0.7 for j in range(len(cols)) if rng.random() < 0.4}
        got = separate(inst, cols, x, 1e-7)
        worst = None
        for w in all_cut_rows(inst):
            tot = sum(x.get(j, 0.0) for j in row_support(cols, w))
            if tot < 1 - 1e-7 and (worst is None or tot < worst - 1e-12):
                worst = tot
        if got is None:
            assert worst is None
        else:
            tot = sum(x.get(j, 0.0) for j in row_support(cols, got))
            assert tot < 1 - 1e-7
            assert tot == pytest.approx(worst, abs=1e-9)


@pytest.mark.parametrize("tol", [2.0, float("nan"), 0.0, -1e-7])
def test_tol_outside_range_is_rejected(tol):
    inst = generate("uniform-random", 5, 3, 9100, edge_prob=0.5)
    cols = enumerate_columns(inst, 2)
    message = rf"tol must be in \(0, 1e-4\], got {tol}"
    with pytest.raises(LpError, match=message):
        separate(inst, cols, {}, tol)
    with pytest.raises(LpError, match=message):
        solve_lp(inst, cols, tol)
    assert separate(inst, cols, {}, 1e-7) is not None


# ---------------------------------------------------------------------------
# cutting-plane solve


def test_two_terminal_instance():
    inst = parse_instance("nodes 2\nedge 0 1 3\nterminals 0 1\nroot 0\n")
    state = solve_lp(inst, enumerate_columns(inst, 2))
    assert state.objective == pytest.approx(6.0)
    mass = [j for j, v in state.x.items() if v > 1e-9]
    assert all(state.columns[j].sink == inst.root for j in mass)


def test_cost_one_star():
    text = "nodes 4\nedge 0 3 1\nedge 1 3 1\nedge 2 3 1\nterminals 0 1 2\nroot 0\n"
    inst = parse_instance(text)
    cols = enumerate_columns(inst, 3)
    state = solve_lp(inst, cols)
    assert state.objective <= 4.0 + 1e-7
    # exact LP over the full row set as the lower bound
    supports = [row_support(cols, w) for w in all_cut_rows(inst)]
    exact = lp_vertex_enumeration(supports, len(cols), [c.power for c in cols])
    assert state.objective >= float(exact) - 1e-7


def test_zero_cost_instance():
    inst = parse_instance(
        "nodes 3\nedge 0 1 0\nedge 1 2 0\nterminals 0 1 2\nroot 0\n"
    )
    state = solve_lp(inst, enumerate_columns(inst, 3))
    assert state.objective == pytest.approx(0.0, abs=1e-9)


def test_feasible_for_all_rows_and_lower_bound():
    for seed in range(25):
        rng = random.Random(8000 + seed)
        n = rng.randint(4, 8)
        inst = generate("uniform-random", n, rng.randint(2, min(n, 6)), 8000 + seed,
                        edge_prob=0.4, cost_max=9)
        cols = enumerate_columns(inst, 3)
        state = solve_lp(inst, cols)
        # termination certificate: separation finds nothing
        assert separate(inst, cols, state.x, 1e-7) is None
        # exhaustive row check
        for w in all_cut_rows(inst):
            tot = sum(state.x.get(j, 0.0) for j in row_support(cols, w))
            assert tot >= 1 - 1e-6
        assert all(v >= -1e-7 for v in state.x.values())
        # objective never decreases as rows are added
        hist = state.objective_history
        assert all(hist[i] <= hist[i + 1] + 1e-7 for i in range(len(hist) - 1))
        # integral solution is feasible when k >= |R|
        if len(inst.terminals) <= 3:
            exact = exact_min_power(inst, "steiner").total_power
            assert state.objective <= float(exact) + 1e-6


def generated_cases():
    """16 generated instances over every generator kind, plus 8 of them with
    costs spread over 16 decades."""
    cases = []
    for kind in GENERATOR_KINDS:
        for s in range(4):
            nodes = 5 if kind == "reduction-wrapped" else 6 + s % 2
            cases.append(generate(kind, nodes, 4 + s % 2, 16_000 + 100 * s + len(kind), edge_prob=0.5))
    rng = random.Random(16)
    for inst in cases[::2]:
        cases.append(inst.with_costs([rng.randint(1, 9) * F(10) ** rng.randint(-8, 8) for _ in inst.edges]))
    return cases


def relative_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b)) if a or b else 0.0


def test_objective_matches_highs_on_full_row_set():
    optimize = pytest.importorskip("scipy.optimize")
    cases = generated_cases()
    rng = random.Random(17)
    for inst in cases[:24]:
        # later IRR iterations solve LPs with many zero costs: heavily degenerate
        for share in (0.3, 0.6):
            zero = set(rng.sample(range(len(inst.edges)), round(share * len(inst.edges))))
            cases.append(inst.with_costs([0 if e in zero else c for e, (_, _, c) in enumerate(inst.edges)]))
    # spanning, with costs spread over 24 decades: HiGHS on the raw costs
    # stops 7.6e-6 (relative) above the optimum here
    inst = generate("euclidean-powerlaw", 8, 8, 11, exponent=4)
    rng = random.Random(11)
    cases.append(inst.with_costs([c * F(10) ** rng.randint(-24, 0) for _, _, c in inst.edges]))
    for inst in cases:
        cols = enumerate_columns(inst, 3)
        rows = list(all_cut_rows(inst))
        cover = np.zeros((len(rows), len(cols)))
        for i, w in enumerate(rows):
            cover[i, row_support(cols, w)] = 1.0
        # HiGHS's feasibility tolerances are absolute (1e-7 by default): on
        # instances whose powers are all tiny it stops above the optimum, so
        # it gets the powers divided by the largest and tolerances of 1e-10
        powers = np.array([float(c.power) for c in cols])
        scale = powers.max() or 1.0
        want = optimize.linprog(powers / scale, A_ub=-cover, b_ub=-np.ones(len(rows)),
                                bounds=(0, None), method="highs",
                                options={"primal_feasibility_tolerance": 1e-10,
                                         "dual_feasibility_tolerance": 1e-10})
        assert want.status == 0
        got = solve_lp(inst, cols).objective
        assert relative_gap(got, want.fun * scale) <= 1e-9, (got, want.fun * scale)


def test_objective_independent_of_cost_scale():
    for inst in generated_cases():
        want = solve_lp(inst, enumerate_columns(inst, 3)).objective
        for scale in (F(10) ** -12, F(10) ** -9, F(10) ** 6):
            scaled = inst.with_costs([c * scale for _, _, c in inst.edges])
            got = solve_lp(scaled, enumerate_columns(scaled, 3)).objective / float(scale)
            assert relative_gap(got, want) <= 1e-9, (scale, got, want)


def test_warm_start_matches_cold_solve():
    # solve_lp adds each cut to the tableau of the previous round; a cold
    # solve of its final rows must reach the same optimum
    for inst in generated_cases():
        cols = enumerate_columns(inst, 3)
        state = solve_lp(inst, cols)
        supports = [row_support(cols, w) for w in state.rows]
        _, cold = lp_core_solve(supports, len(cols), [float(c.power) for c in cols])
        assert relative_gap(state.objective, cold) <= 1e-9, (state.objective, cold)


def tableau_cases():
    """(columns, rows) LPs: every cut row of a small spanning instance of each
    generator kind, and the cutting-plane rows of two spanning
    `reduction-wrapped` instances whose costs are divided by distinct primes
    and 10^12 (1,920 columns, degenerate)."""
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    for kind in GENERATOR_KINDS:
        nodes = 3 if kind == "reduction-wrapped" else 6
        inst = with_mode(generate(kind, nodes, 2, 24_100 + len(kind), edge_prob=0.5), "spanning")
        yield enumerate_columns(inst, 3), list(all_cut_rows(inst))
    for seed in (18_003, 18_009):
        base = generate("reduction-wrapped", 4, 4, seed, edge_prob=0.5, cost_max=9)
        inst = with_mode(base.with_costs([c / (primes[e] * 10**12) for e, (_, _, c) in enumerate(base.edges)]),
                         "spanning")
        cols = enumerate_columns(inst, 3)
        yield cols, solve_lp(inst, cols).rows


def test_tableau_matches_copying_tableau():
    # the tableau grows into a buffer of twice its room when full; warm
    # started after every row, it must give the x of the tableau that copied
    # itself whole per row, float for float and in the same key order (the
    # wide, degenerate LPs tell apart products that round differently)
    for cols, rows in tableau_cases():
        prices = [float(c.power) for c in cols]
        lp, ref = _DualSimplex(prices), DualSimplexReference(prices)
        buffers = [lp.buffer]
        for w in rows:
            support = row_support(cols, w)
            lp.add_row(support)
            ref.add_row(support)
            if lp.buffer is not buffers[-1]:
                buffers.append(lp.buffer)
            (x, value), (want_x, want_value) = lp.solve(), ref.solve()
            assert list(x.items()) == list(want_x.items()), (len(cols), sorted(w))
            assert value == want_value, (len(cols), sorted(w))
        assert len(buffers) >= 3  # two doublings at least


def test_singleton_block_matches_row_by_row_start():
    # solve_lp starts the tableau from its singleton rows as one block; it
    # must equal the tableau fed the same rows one `add_row` at a time, in
    # its buffer too, and stay equal as the cut rows grow both past two
    # doublings of the buffer
    doublings = []
    for cols, rows in tableau_cases():
        inst = cols.instance
        terms = sorted(inst.terminals)
        block = [support for t, support in zip(terms, cols.layout.singletons) if t != inst.root]
        prices = [float(c.power) for c in cols]
        lp, ref = _DualSimplex(prices, block), _DualSimplex(prices)
        for support in block:
            ref.add_row(support.tolist())
        assert np.array_equal(lp.basis, ref.basis) and lp.basis.dtype == ref.basis.dtype
        assert np.array_equal(lp.buffer, ref.buffer)
        start = lp.buffer
        buffers = 0
        for w in [w for w in rows if len(w) > 1 or inst.root in w] + [None]:
            assert lp.buffer.shape == ref.buffer.shape, (len(cols), w)
            (x, value), (want_x, want_value) = lp.solve(), ref.solve()
            assert list(x.items()) == list(want_x.items()), (len(cols), w)
            assert value == want_value, (len(cols), w)
            if w is not None:
                support = row_support(cols, w)
                lp.add_row(support)
                ref.add_row(support)
                if lp.buffer is not start:
                    start, buffers = lp.buffer, buffers + 1
        doublings.append(buffers)
    assert min(doublings) >= 2, doublings


def test_infeasible_without_columns():
    inst = parse_instance("nodes 2\nedge 0 1 3\nterminals 0 1\nroot 0\n")
    with pytest.raises(LpError, match="no covering column"):
        solve_lp(inst, [])


def shifted(inst: Instance, shift: int) -> Instance:
    """`inst` with every node id raised by `shift`, isolated nodes below."""
    return Instance(inst.node_count + shift, tuple((u + shift, v + shift, c) for u, v, c in inst.edges),
                    frozenset(t + shift for t in inst.terminals), inst.root + shift)


def unshifted(record, shift: int):
    """An IRR trace record of a `shifted` instance in the original node ids."""
    if record.sampled_terminals is None:
        return record
    return replace(record, sampled_terminals=tuple(t - shift for t in record.sampled_terminals),
                   sampled_sink=record.sampled_sink - shift)


def test_results_do_not_depend_on_node_id_values():
    # past 8, a small frozenset of node ids no longer iterates in ascending
    # order; the LP and IRR must see only the terminals' order
    cases = unordered = 0
    for kind in GENERATOR_KINDS:
        for mode in ("steiner", "spanning"):
            for s in range(5):
                nodes = 3 + s % 2 if kind == "reduction-wrapped" else 5 + s % 3
                inst = with_mode(generate(kind, nodes, 3 + s % 2, 34_000 + s, edge_prob=0.5, cost_max=5), mode)
                for k in (2, 3):
                    want = solve_lp(inst, enumerate_columns(inst, k))
                    want_tree, want_trace = irr_solve(inst, k, s)
                    for shift in (8, 13):
                        moved = shifted(inst, shift)
                        cols = enumerate_columns(moved, k)
                        unordered += sum(list(cols.terminal_set(i)) != sorted(cols.terminal_set(i))
                                         for i in range(len(cols.members)))
                        got = solve_lp(moved, cols)
                        assert [frozenset(t - shift for t in w) for w in got.rows] == want.rows, (kind, mode, s, k)
                        assert list(got.x.items()) == list(want.x.items()), (kind, mode, s, k)
                        assert got.objective_history == want.objective_history, (kind, mode, s, k)
                        tree, trace = irr_solve(moved, k, s)
                        assert tree.edges == want_tree.edges, (kind, mode, s, k)
                        assert [unshifted(r, shift) for r in trace.records] == want_trace.records, \
                            (kind, mode, s, k)
                        cases += 1
    assert cases == 4 * 2 * 5 * 2 * 2 and unordered > 0


def test_lp_at_most_a_decomposition_of_the_optimum():
    # each part of a decomposition of the optimum maps back to a connected
    # subgraph on its terminals, so its power is at least p_Q; orienting the
    # component graph's tree toward the root's part gives each part a sink,
    # and those columns cover every cut row: LP(k) <= total_power whenever
    # every part has at most k terminals
    compared = {k: 0 for k in (3, 4)}
    kinds = set()
    for kind in GENERATOR_KINDS:
        for mode in ("steiner", "spanning"):
            for s in range(8):
                # a reduction triples each edge: 4 nodes on a tree reduce to 10
                nodes, prob = (4, 0.0) if kind == "reduction-wrapped" else (6 + s % 2, 0.4)
                base = generate(kind, nodes, min(3 + s % 4, nodes), 31_000 + s, edge_prob=prob, cost_max=5)
                inst = with_mode(base, mode)
                assert inst.node_count <= 12
                tree = attach_dummy_leaves(CostedTree.from_instance(inst, exact_min_power(inst, mode).edges))
                for delta in (3, 4):
                    dec = bounded_degree_decompose(tree, delta)
                    if not component_graph(dec).is_tree:
                        continue
                    most = max(len(part.terminals) for part in dec.parts)
                    for k in (3, 4):
                        if most <= k:
                            lp = solve_lp(inst, enumerate_columns(inst, k)).objective
                            assert lp <= float(dec.total_power) * (1 + 1e-9), (kind, mode, s, delta, k)
                            compared[k] += 1
                            kinds.add(kind)
    assert sum(compared.values()) >= 60 and min(compared.values()) > 0 and kinds == set(GENERATOR_KINDS)
