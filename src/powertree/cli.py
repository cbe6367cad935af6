"""Command-line interface: solve, path, component, decompose, lp, analyze,
bench and gen subcommands. Single results print as JSON records on stdout;
failures print a JSON error record on stderr and exit nonzero (usage errors
exit 2)."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import analysis, bench, decomposition
from .components import enumerate_columns, min_power_component
from .generators import GENERATOR_KINDS, generate
from .instance import Instance, format_cost, parse_cost, parse_instance, serialize
from .lp import solve_lp
from .pathpower import min_power_path
from .trees import CostedTree, prune_nonterminal_leaves


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_instance(path: str, mode: str = "steiner") -> Instance:
    return bench.with_mode(parse_instance(_read(path)), mode)


def _load_tree(instance: Instance, path: str) -> CostedTree:
    ids = []
    for raw in _read(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            ids.extend(int(tok) for tok in line.split())
    return CostedTree.from_instance(instance, ids)


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def cmd_solve(args: argparse.Namespace) -> int:
    mode = "spanning" if args.spanning else "steiner"
    instance = _load_instance(args.instance, mode)
    tree, trace = bench.run_solver(instance, args.algo, mode, args.k, args.seed, args.max_iters)
    if trace is None:
        _emit(tree.to_record(solver=args.algo))
        return 0
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for rec in trace.records:
                fh.write(json.dumps(rec.to_record(), sort_keys=True) + "\n")
    record = tree.to_record(solver="irr", seed=args.seed)
    record["iterations"] = trace.iterations
    record["sampled_power_total"] = format_cost(trace.sampled_power_total())
    _emit(record)
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    result = min_power_path(instance, args.src, args.dst)
    _emit(result.to_record())
    return 0


def cmd_component(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    terminals = frozenset(int(t) for t in args.terminals.split(","))
    comp = min_power_component(instance, terminals, k_cap=args.k)
    _emit({
        "terminals": sorted(comp.terminal_set),
        "edges": list(comp.edges),
        "power": format_cost(comp.power),
    })
    return 0


def _tree_record(part: CostedTree) -> dict:
    return {
        "edges": [[u, v, format_cost(c)] for u, v, c in part.edges],
        "terminals": sorted(part.terminals),
        "power": format_cost(part.power()),
    }


def cmd_decompose(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    tree = prune_nonterminal_leaves(_load_tree(instance, args.tree))
    full = decomposition.attach_dummy_leaves(tree)
    if args.mode == "degree":
        dec = decomposition.bounded_degree_decompose(full, args.delta)
        bound = Fraction(1) + Fraction(2, -(-args.delta // 2) - 1)
    else:
        q = "best" if args.q == "best" else int(args.q)
        dec = decomposition.h_power_decompose(full, args.h, q)
        bound = Fraction(1) + Fraction(14, args.h)
    graph = decomposition.component_graph(dec)
    _emit({
        "mode": args.mode,
        "q": dec.q,
        "parts": [_tree_record(p) for p in dec.parts],
        "total_power": format_cost(dec.total_power),
        "source_power": format_cost(full.power()),
        "power_bound_factor": format_cost(bound),
        "bound_holds": dec.total_power <= bound * full.power(),
        "component_graph_is_tree": graph.is_tree,
    })
    return 0


def cmd_lp(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    columns = enumerate_columns(instance, args.k)
    state = solve_lp(instance, columns, tol=args.tol)
    nonzero = {}
    for j, v in sorted(state.x.items()):
        if v > args.tol:
            i, sink = columns.column(j)
            nonzero[f"({'+'.join(map(str, columns.members[i]))},{sink})"] = round(v, 9)
    _emit({
        "objective": round(state.objective, 9),
        "rows": len(state.rows),
        "columns": len(columns),
        "nonzero": nonzero,
    })
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.what == "delta":
        report = analysis.check_delta_properties(args.kind, args.i_max)
        print("i,delta")
        for i, value in enumerate(report.values, start=1):
            print(f"{i},{value:.10f}")
        return 0
    instance = _load_instance(args.instance)
    tree = _load_tree(instance, args.tree)
    if args.what == "classify":
        cls = analysis.classify_edges(tree)
        _emit({
            "heavy": list(cls.heavy),
            "middle": list(cls.middle),
            "light": list(cls.light),
            "gamma_h": format_cost(cls.gamma_h),
            "gamma_m": format_cost(cls.gamma_m),
            "alpha": format_cost(cls.alpha),
        })
        return 0
    # witness statistics need the full-component normal form
    tree = decomposition.attach_dummy_leaves(prune_nonterminal_leaves(tree))
    report = analysis.witness_stats(tree, args.node, args.i, args.trials, args.seed)
    _emit({
        "node": report.node,
        "i": report.i,
        "trials": report.trials,
        "freq_s_equals_d": round(report.freq_s_equals_d, 6),
        "expected": report.expected_s_equals_d,
        "binomial_sigma": round(report.binomial_sigma, 6),
        "wsize_histogram": {str(k): v for k, v in report.wsize_histogram.items()},
        "mean_harmonic": round(report.mean_harmonic, 6),
        "delta_bound": round(report.delta_bound, 7),
        "max_within_component_edges": report.max_within_component_edges,
    })
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = bench.parse_config(_read(args.config))
    report = bench.run_bench(cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report)
    summary = [line for line in report.splitlines() if ",summary," in line]
    print("\n".join(summary))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.edge_prob is not None:
        kwargs["edge_prob"] = args.edge_prob
    if args.cost_max is not None:
        kwargs["cost_max"] = args.cost_max
    if args.exponent is not None:
        kwargs["exponent"] = args.exponent
    if args.low is not None:
        kwargs["low"] = parse_cost(args.low)
    if args.high is not None:
        kwargs["high"] = parse_cost(args.high)
    instance = generate(args.kind, args.nodes, args.terminals, args.seed, **kwargs)
    text = serialize(instance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertree",
        description="Min-power Steiner/spanning tree toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance")
    p.add_argument("--algo", choices=bench.KNOWN_SOLVERS, required=True)
    p.add_argument("--spanning", action="store_true", help="treat every node as a terminal")
    p.add_argument("--k", type=int, default=3, choices=range(2, 5), help="component size cap for irr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--trace", default=None, help="write the per-iteration trace as JSONL")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("path", help="min-power path between two nodes")
    p.add_argument("instance")
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("component", help="min-power component on a terminal subset")
    p.add_argument("instance")
    p.add_argument("--terminals", required=True, help="comma-separated terminal ids")
    p.add_argument("--k", type=int, default=4, choices=range(1, 5))
    p.set_defaults(func=cmd_component)

    p = sub.add_parser("decompose", help="decompose a tree into components")
    p.add_argument("instance")
    p.add_argument("--tree", required=True, help="file of edge ids")
    p.add_argument("--mode", choices=("degree", "hpow"), required=True)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--h", type=int, default=3, choices=range(3, 7))
    p.add_argument("--q", default="best")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("lp", help="solve the component cut LP")
    p.add_argument("instance")
    p.add_argument("--k", type=int, required=True, choices=range(2, 5))
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("analyze", help="analysis quantities and empirical checks")
    asub = p.add_subparsers(dest="what", required=True)
    a = asub.add_parser("delta", help="harmonic deletion-time bounds")
    a.add_argument("--kind", choices=("spanning", "steiner"), required=True)
    a.add_argument("--i-max", type=int, default=50)
    a.set_defaults(func=cmd_analyze)
    a = asub.add_parser("classify", help="heavy/middle/light edge classification")
    a.add_argument("instance")
    a.add_argument("--tree", required=True)
    a.set_defaults(func=cmd_analyze)
    a = asub.add_parser("witness", help="witness-tree sampling statistics")
    a.add_argument("instance")
    a.add_argument("--tree", required=True)
    a.add_argument("--node", type=int, required=True)
    a.add_argument("--i", type=int, required=True)
    a.add_argument("--trials", type=int, default=1000)
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--terminals", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=None)
    p.add_argument("--cost-max", type=int, default=None)
    p.add_argument("--exponent", type=int, default=None)
    p.add_argument("--low", default=None)
    p.add_argument("--high", default=None)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.trace and args.algo != "irr":
        parser.error("--trace needs --algo irr: only irr records a per-iteration trace")
    try:
        return args.func(args)
    except Exception as exc:
        record = {"error": str(exc), "type": type(exc).__name__}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
