"""Dump the results of every pipeline stage on fixed seeded inputs, one JSON
line per result, to show that a refactor changes no result.

usage: python tools/dump_results.py SRC_DIR > results.jsonl

SRC_DIR is the `src` directory of the checkout to import `powertree` from.
Dump two checkouts and compare the files (`cmp`, or `diff` to see which
records differ). Only public behaviour is recorded, so the two checkouts may
differ in anything else. A tree is recorded as its edge ids, total power,
total cost and node powers. Records:

  irr        irr_solve tree and full trace: 80 solves on each perfbench irr
             workload's generator, and the four generator kinds in both modes
  exact      exact_min_power, and the min-cost baselines through the bench
             solver switch (steiner, spanning, and more than 12 terminals);
             exact_min_power alone on the first 100 instances of each
             perfbench irr workload in its mode, and on the 100 reduced
             instances of acceptance criterion 2 (up to 31 nodes)
  extract    extract_tree on random edge subsets, raising calls included
  columns    enumerate_columns at k=4 (edges and power per column), also
             on dense graphs (euclidean-powerlaw n=9-10, uniform-random and
             two-level n=10-12 at edge_prob 0.5, with 0% and 50% of their
             costs zeroed), where |Q| = 4 realizations often close cycles;
             and at k=3 on the inputs of
             tests/test_components.py::test_component_three_matches_reference,
             each generator kind with 0/30/60/90% of its costs zeroed, where
             equal-power spiders are common
  pair       min_power_component on every terminal pair
  rational   each generator kind with every edge cost divided by its own
             small prime and by 10^12, so the common denominator runs to
             about 10^40: enumerate_columns at k=3 and k=4,
             min_power_component and min_power_path on every terminal pair,
             exact_min_power and the baselines in both modes, and irr_solve
             (k=3) in both modes
  lp         solve_lp rows, x and objective history
  bench      bench-oracle suite CSVs without the wall_time_s column, on its
             own config and at threads = 1, a suite whose exact rows raise, and
             one whose mst row's ratio to exact is past float range (written
             as inf)
  analysis   on 150 seeds of three tree families (random full components,
             degree-capped ones with 28-49 terminals, and dummy-leaf
             completions of random trees with internal terminals):
             attach_dummy_leaves, bounded_degree_decompose (delta 3-6),
             h_power_decompose and level_cut_parts (h = 3, 4), component_graph,
             build_binary_tree, sample_witness, witness_stats (5 trials) and
             classify_edges, raising calls included; the same on a
             caterpillar 1,500 internal nodes deep below a degree-5 hub, and
             on the empty tree
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def emit(kind: str, key, value) -> None:
    print(json.dumps({"kind": kind, "key": key, "value": value}, sort_keys=True))


def tree_record(tree) -> list:
    powers = [[v, str(p)] for v, p in sorted(tree.node_powers.items())]
    return [list(tree.edges), str(tree.total_power), str(tree.total_cost), powers]


def costed_record(tree) -> list:
    return [[[u, v, str(c)] for u, v, c in tree.edges], sorted(tree.terminals)]


def items(mapping) -> list:
    return sorted([k, sorted(v) if isinstance(v, (set, frozenset)) else v] for k, v in mapping.items())


def analysis_records() -> None:
    from dataclasses import asdict

    from powertree.analysis import build_binary_tree, classify_edges, sample_witness, witness_stats
    from powertree.decomposition import (
        attach_dummy_leaves, bounded_degree_decompose, component_graph, h_power_decompose, level_cut_parts,
    )
    from powertree.trees import CostedTree, random_full_component

    def record(key, fn, *args):
        try:
            value = fn(*args)
        except ValueError as exc:  # recorded: both checkouts must fail alike
            emit("analysis", key, f"{type(exc).__name__}: {exc}")
            return None
        return value

    def decomposition(key, dec):
        if dec is not None:
            graph = component_graph(dec)
            emit("analysis", key, [[costed_record(p) for p in dec.parts], str(dec.total_power), dec.q,
                                   [graph.center_count, list(graph.terminals), list(graph.edges), graph.is_tree]])

    def deep_caterpillar():
        # leaf 0, hub 1 of degree 5 with three cherries and a caterpillar
        # 1,500 internal nodes deep whose cost-0 spine is the cheapest descent
        depth, spine = 1500, range(2, 1502)
        last = spine[-1]
        edges = [(0, 1, Fraction(3)), (1, 2, Fraction(3))]
        edges += [(v, v + 1, Fraction(0)) for v in spine[:-1]]
        edges += [(v, v + depth, Fraction(10 + v % 7) if v < last else Fraction(1)) for v in spine]
        edges.append((last, last + depth + 1, Fraction(2)))
        first = last + depth + 2
        for i, center in enumerate(range(first, first + 3)):
            leaf = first + 3 + 2 * i
            edges += [(1, center, Fraction(4 + i)), (center, leaf, Fraction(5)), (center, leaf + 1, Fraction(6))]
        tree = CostedTree(tuple(edges), frozenset())
        return CostedTree(tree.edges, frozenset(tree.leaves()))

    def random_tree(seed):
        # random recursive tree whose leaves and some inner nodes are terminals
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        edges = tuple((rng.randrange(i), i, Fraction(rng.randint(0, 9))) for i in range(1, n))
        deg = [0] * n
        for u, v, _ in edges:
            deg[u] += 1
            deg[v] += 1
        terms = {v for v in range(n) if deg[v] <= 1 or rng.random() < 0.3}
        return CostedTree(edges, frozenset(terms))

    def component(key, tree, seed):
        emit("analysis", key + ["tree"], costed_record(tree))
        cls = record(key + ["classify"], classify_edges, tree)
        if cls is not None:
            emit("analysis", key + ["classify"], [list(cls.heavy), list(cls.middle), list(cls.light),
                                                  str(cls.gamma_h), str(cls.gamma_m), str(cls.alpha)])
        for delta in range(3, 7):
            decomposition(key + ["degree", delta], record(key + ["degree", delta],
                                                          bounded_degree_decompose, tree, delta))
        for h in (3, 4):
            decomposition(key + ["hpower", h], record(key + ["hpower", h], h_power_decompose, tree, h))
            for q in range(h):
                parts = record(key + ["level", h, q], level_cut_parts, tree, h, q)
                if parts is not None:
                    emit("analysis", key + ["level", h, q], [costed_record(p) for p in parts])
        if seed < 5 and tree.nodes:  # invalid parameters
            for bad, fn, args in (("delta", bounded_degree_decompose, (tree, 2)),
                                  ("h", h_power_decompose, (tree, 2)),
                                  ("q", h_power_decompose, (tree, 3, "x")),
                                  ("level-q", level_cut_parts, (tree, 3, 3)),
                                  ("trials", witness_stats, (tree, tree.nodes[0], 1, 0, seed))):
                record(key + ["bad", bad], fn, *args)
        sbin = record(key + ["binary"], build_binary_tree, tree)
        if sbin is None:
            return
        emit("analysis", key + ["binary"], [
            sbin.root, items(sbin.parent), items(sbin.children), items(sbin.edge_origs),
            [[k, str(c)] for k, c in sorted(sbin.edge_cost.items())], sorted(sbin.dummy_edges),
            items(sbin.levels), sorted(sbin.terminals), items(sbin.orig_to_bin),
        ])
        for ws_seed in (seed, seed + 1):
            ws = sample_witness(sbin, ws_seed)
            emit("analysis", key + ["witness", ws_seed],
                 [sorted(ws.marks), [list(e) for e in ws.witness_edges], items(ws.witness_map)])
        inner = [v for v in tree.nodes if v not in tree.terminals][:2] + [min(tree.terminals)]
        for v in inner:
            for i in (1, 2):
                rep = record(key + ["stats", v, i], witness_stats, tree, v, i, 5, seed)
                if rep is not None:
                    emit("analysis", key + ["stats", v, i], sorted(asdict(rep).items()))

    for seed in range(150):
        families = [
            ("full", random_full_component(95_000 + seed)),
            ("capped", random_full_component(96_000 + seed, terminal_count=28 + seed % 22,
                                             degree_cap=3 + seed % 3)),
        ]
        raw = random_tree(97_000 + seed)
        emit("analysis", ["raw", seed], costed_record(raw))
        for name, fn, args in (("raw-binary", build_binary_tree, (raw,)),
                               ("raw-degree", bounded_degree_decompose, (raw, 3))):
            if record([name, seed], fn, *args) is not None:
                emit("analysis", [name, seed], "ok")
        families.append(("dummy", attach_dummy_leaves(raw)))
        for fam, tree in families:
            component([fam, seed], tree, seed)
    component(["deep", 0], deep_caterpillar(), 0)
    component(["empty", 0], CostedTree((), frozenset()), 0)


def rational_records() -> None:
    import powertree as pt
    from powertree.bench import run_solver, with_mode
    from powertree.exact import SolverError
    from powertree.generators import GENERATOR_KINDS

    primes = [p for p in range(2, 120) if all(p % q for q in range(2, p))]
    for kind in GENERATOR_KINDS:
        for s in range(4):
            nodes = 4 + s % 2 if kind == "reduction-wrapped" else 6 + s % 2
            base = pt.generate(kind, nodes, 4, 18_000 + s, edge_prob=0.5, cost_max=9)
            inst = base.with_costs([c / (primes[e] * 10**12) for e, (_, _, c) in enumerate(base.edges)])
            key = [kind, s]
            for k in (3, 4):
                emit("rational", key + ["columns", k], [[sorted(c.terminal_set), c.sink, list(c.edges), str(c.power)]
                                                        for c in pt.enumerate_columns(inst, k)])
            terms = sorted(inst.terminals)
            for a, b in combinations(terms, 2):
                comp = pt.min_power_component(inst, {a, b}, 2)
                path = pt.min_power_path(inst, a, b)
                emit("rational", key + ["pair", a, b],
                     [list(comp.edges), str(comp.power), list(path.nodes), list(path.edges), str(path.power)])
            for mode in ("steiner", "spanning"):
                for solver in ("exact", "mst", "steiner-cost"):
                    try:
                        tree, _ = run_solver(inst, solver, mode, 3, 0, None)
                        emit("rational", key + [mode, solver], tree_record(tree))
                    except SolverError as exc:
                        emit("rational", key + [mode, solver], f"SolverError: {exc}")
                tree, trace = pt.irr_solve(with_mode(inst, mode), 3, s)
                emit("rational", key + [mode, "irr"], [tree_record(tree), [r.to_record() for r in trace.records]])


def main(src: str) -> None:
    sys.path.insert(0, src)
    sys.path.insert(1, str(ROOT / "perfbench"))
    import powertree as pt
    from powertree.bench import parse_config, run_bench, run_solver, with_mode
    from powertree.exact import SolverError
    from powertree.generators import GENERATOR_KINDS
    from powertree.instance import reduce_cost_to_power
    from powertree.pruning import extract_tree
    from workloads import WORKLOADS, BenchPlan, derive

    def solve_irr(key, inst, k, seed):
        try:
            tree, trace = pt.irr_solve(inst, k, seed)
        except Exception as exc:  # recorded: both checkouts must fail alike
            emit("irr", key, f"{type(exc).__name__}: {exc}")
            return
        emit("irr", key, [tree_record(tree), [r.to_record() for r in trace.records]])

    for name in ("irr-spanning", "irr-steiner-k4"):
        w = WORKLOADS[name]
        for j in range(80):
            inst = pt.generate("uniform-random", w.nodes, w.terminals,
                               derive(1, name, "instance", j), edge_prob=w.edge_prob)
            solve_irr([name, j], with_mode(inst, w.mode), w.k, derive(1, "irr", j))

    mixed = []
    for kind in GENERATOR_KINDS:
        for s in range(12):
            nodes = 4 + s % 2 if kind == "reduction-wrapped" else 6 + s % 4
            mixed.append((kind, s, pt.generate(kind, nodes, min(3 + s % 3, nodes), 500 + s, cost_max=5)))
    for kind, s, inst in mixed:
        for mode in ("steiner", "spanning"):
            if s < 10:
                solve_irr([kind, s, mode], with_mode(inst, mode), 3 if s % 2 else 2, s)
            for solver in ("exact", "mst", "steiner-cost"):
                try:
                    tree, _ = run_solver(inst, solver, mode, 3, 0, None)
                    emit("exact", [kind, s, mode, solver], tree_record(tree))
                except SolverError as exc:
                    emit("exact", [kind, s, mode, solver], f"SolverError: {exc}")
    for name in ("irr-spanning", "irr-steiner-k4"):
        w = WORKLOADS[name]
        for j in range(100):
            inst = pt.generate("uniform-random", w.nodes, w.terminals,
                               derive(1, name, "instance", j), edge_prob=w.edge_prob)
            emit("exact", [name, j], tree_record(pt.exact_min_power(with_mode(inst, w.mode), w.mode)))
    for seed in range(100):  # the instances of tests/test_acceptance.py::test_criterion_02
        rng = random.Random(50_000 + seed)
        n = rng.randint(3, 8)
        inst = pt.generate("uniform-random", n, rng.randint(2, n), 50_000 + seed, edge_prob=0.15, cost_max=9)
        emit("exact", ["reduction", seed],
             tree_record(pt.exact_min_power(reduce_cost_to_power(inst), "steiner", node_guard=40)))
    for s in range(6):
        inst = pt.generate("uniform-random", 14 + s % 3, 13 + s % 2, 900 + s, edge_prob=0.25, cost_max=5)
        emit("exact", ["many-terminals", s], tree_record(run_solver(inst, "steiner-cost", "steiner", 3, 0, None)[0]))
        emit("exact", ["many-terminals-mst", s], tree_record(run_solver(inst, "mst", "steiner", 3, 0, None)[0]))

    rng = random.Random(7)
    for kind, s, inst in mixed:
        n, m = inst.node_count, len(inst.edges)
        for t in range(20):
            sub = [e for e in range(m) if rng.random() < rng.choice((0.5, 0.8, 1.0))]
            req = frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
            try:
                emit("extract", [kind, s, t], extract_tree(inst, sub, req))
            except ValueError as exc:
                emit("extract", [kind, s, t], f"ValueError: {exc}")

    for kind, s, inst in mixed[::3]:
        cols = pt.enumerate_columns(inst, 4)
        emit("columns", [kind, s], [[sorted(c.terminal_set), c.sink, list(c.edges), str(c.power)] for c in cols])
        terms = sorted(inst.terminals)
        for a in terms:
            for b in terms:
                if a < b:
                    comp = pt.min_power_component(inst, {a, b}, 2)
                    emit("pair", [kind, s, a, b], [list(comp.edges), str(comp.power)])
        state = pt.solve_lp(inst, pt.enumerate_columns(inst, 3))
        emit("lp", [kind, s], [[sorted(r) for r in state.rows], sorted(state.x.items()),
                               list(state.objective_history)])
    for kind, nodes, terms in (("euclidean-powerlaw", 9, 5), ("euclidean-powerlaw", 10, 4),
                               ("uniform-random", 10, 5), ("uniform-random", 12, 4),
                               ("two-level", 10, 5), ("two-level", 12, 4)):
        base = pt.generate(kind, nodes, terms, 20_000 + nodes, edge_prob=0.5)
        for fraction in (0, 0.5):
            zeroing = random.Random(nodes)
            inst = base.with_costs([0 if zeroing.random() < fraction else c for _, _, c in base.edges])
            cols = pt.enumerate_columns(inst, 4)
            emit("columns", ["dense", kind, nodes, fraction],
                 [[sorted(c.terminal_set), c.sink, list(c.edges), str(c.power)] for c in cols])
    for kind in GENERATOR_KINDS:
        for fraction in (0, 0.3, 0.6, 0.9):
            for s in range(5):
                nodes = 4 + s % 2 if kind == "reduction-wrapped" else 6 + s % 3
                inst = pt.generate(kind, nodes, 4 + s % 2, 16_000 + s, edge_prob=0.5, cost_max=3)
                zeroing = random.Random(s)
                inst = inst.with_costs([0 if zeroing.random() < fraction else c for _, _, c in inst.edges])
                cols = pt.enumerate_columns(inst, 3)
                emit("columns", [kind, fraction, s],
                     [[sorted(c.terminal_set), c.sink, list(c.edges), str(c.power)] for c in cols])

    rational_records()

    w = WORKLOADS["bench-oracle"]
    for u in range(6):
        report = run_bench(parse_config(w.suite_text(1, u)))
        emit("bench", u, BenchPlan.signature(report))
        serial = parse_config(w.suite_text(1, u + 6))
        serial.threads = 1
        emit("bench", ["threads-1", u + 6], BenchPlan.signature(run_bench(serial)))
    # the 13-node instance is past the exact solver's guard: its exact rows
    # raise and its rows get no ratio
    report = run_bench(parse_config(
        "seed = 5\nreps = 2\nthreads = 1\n"
        "instance gen:uniform-random nodes=13 terminals=5 seed=3\n"
        "instance gen:uniform-random nodes=8 terminals=4 seed=4\n"
        "solver exact\nsolver mst\nsolver steiner-cost\nsolver irr\n"))
    emit("bench", "exact-raises", BenchPlan.signature(report))
    # a power ratio past float range is written as inf
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiny.mpst"
        tiny = "1/1" + "0" * 4000
        path.write_text(f"nodes 4\nedge 0 1 {tiny}\nedge 1 2 {tiny}\nedge 0 2 1\nedge 2 3 1\nterminals 0 2\nroot 0\n")
        report = run_bench(parse_config(f"threads = 1\ninstance file:{path}\nsolver exact\nsolver mst\n"))
    emit("bench", "ratio-overflow", BenchPlan.signature(report))

    analysis_records()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
