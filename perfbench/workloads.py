"""The benchmark's workloads: seeded inputs, one unit of closed-loop work, checks.

Every input derives from the workload seed through `derive`, so one seed
always gives the same instances, IRR seeds and suite configs. A unit is the
work the single client waits for before it sends the next: one `irr_solve`
call for the `irr-*` workloads, one `run_bench` call on a small suite for
`bench-oracle`. A solve is one `irr_solve` call or one CSV row.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass
from fractions import Fraction

from powertree import Instance, PowerTree, evaluate, exact_min_power, generate, irr_solve
from powertree.bench import parse_config, run_bench
from powertree.instance import InstanceError


def derive(seed: int, *parts) -> int:
    """64-bit seed for one input, derived from the workload seed."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass
class Solve:
    seconds: float
    problems: list[str]
    ratio: float | None  # IRR power / exact optimum, for IRR solves only


def check_tree(instance: Instance, mode: str, tree: PowerTree, optimum: Fraction | None) -> list[str]:
    """Problems with one solver result; an empty list means it passed."""
    try:
        again = evaluate(instance, tree.edges)
    except InstanceError as exc:
        return [f"re-evaluation failed: {exc}"]
    problems = []
    if (again.total_power, again.total_cost) != (tree.total_power, tree.total_cost):
        problems.append("re-evaluated power or cost differs")
    required = frozenset(range(instance.node_count)) if mode == "spanning" else instance.terminals
    parent = list(range(instance.node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for eid in tree.edges:
        u, v, _ = instance.edges[eid]
        parent[find(u)] = find(v)
    if len({find(t) for t in required}) != 1:
        problems.append("tree does not span the required nodes")
    if optimum is None:
        problems.append("no exact optimum to compare with")
    elif tree.total_power < optimum:
        problems.append("power below the exact optimum")
    if not tree.total_cost <= tree.total_power <= 2 * tree.total_cost:
        problems.append("power outside [cost, 2 cost]")
    return problems


# ---------------------------------------------------------------------------
# irr-spanning, irr-steiner-k4


@dataclass(frozen=True)
class IrrWorkload:
    name: str
    mode: str
    k: int
    nodes: int
    terminals: int
    edge_prob: float
    pool: int        # distinct instances; solve i uses instance i mod pool
    tail_pct: float  # percentile reported as solve_s_tail

    def setup(self, seed: int) -> "IrrPlan":
        instances = []
        for j in range(self.pool):
            inst = generate("uniform-random", self.nodes, self.terminals,
                            derive(seed, self.name, "instance", j), edge_prob=self.edge_prob)
            if self.mode == "spanning":
                inst = Instance(inst.node_count, inst.edges,
                                frozenset(range(inst.node_count)), inst.root)
            instances.append(inst)
        return IrrPlan(self, seed, instances)


class IrrPlan:
    def __init__(self, workload: IrrWorkload, seed: int, instances: list[Instance]):
        self.workload = workload
        self.seed = seed
        self.instances = instances
        self._optimum: dict[int, Fraction] = {}

    default_solve = staticmethod(irr_solve)

    @staticmethod
    def traced_solve(tracer):
        return tracer.wrap("irr.irr_solve", irr_solve)

    def run_unit(self, i: int, solve):
        """Solve i; returns (elapsed seconds, outcome kept for the checks)."""
        inst = self.instances[i % len(self.instances)]
        start = time.perf_counter()
        try:
            tree, trace = solve(inst, self.workload.k, derive(self.seed, "irr", i))
        except Exception as exc:  # a failed solve is counted, never fatal
            return time.perf_counter() - start, (i, None, f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - start, (i, (tree, trace.iterations), None)

    @staticmethod
    def signature(outcome) -> tuple:
        """What the traced pass must reproduce: power, edge ids, iterations."""
        i, got, error = outcome
        if got is None:
            return (i, error)
        tree, iterations = got
        return (i, str(tree.total_power), tree.edges, iterations)

    def check(self, seconds: float, outcome) -> list[Solve]:
        """Correctness checks; the exact optimum is computed once per instance."""
        i, got, error = outcome
        if got is None:
            return [Solve(seconds, [error], None)]
        tree, _ = got
        j = i % len(self.instances)
        inst = self.instances[j]
        if j not in self._optimum:
            self._optimum[j] = exact_min_power(inst, self.workload.mode).total_power
        optimum = self._optimum[j]
        ratio = float(tree.total_power / optimum) if optimum else 1.0
        return [Solve(seconds, check_tree(inst, self.workload.mode, tree, optimum), ratio)]

    @staticmethod
    def check_captured(results) -> list[list[str]]:
        """Nothing more to check: `check` already saw every IRR result in full."""
        return []


# ---------------------------------------------------------------------------
# bench-oracle


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    instances: tuple[str, ...]  # generator specs without seed; one suite holds all
    solvers: tuple[str, ...]
    reps: int
    threads: int
    suites: int                 # distinct suites; unit u runs suite u mod suites
    tail_pct: float

    def suite_text(self, seed: int, u: int) -> str:
        lines = [f"seed = {derive(seed, self.name, 'suite', u)}", f"reps = {self.reps}",
                 "k = 3", "mode = steiner", f"threads = {self.threads}"]
        for j, spec in enumerate(self.instances):
            gen_seed = derive(seed, self.name, "instance", u, j)
            if spec.startswith("reduction-wrapped"):
                kw = dict(p.split("=") for p in spec.split()[1:])
                nodes, terms = int(kw["nodes"]), int(kw["terminals"])
                # each base edge adds 2 nodes; the exact oracle's guard is 12 nodes
                while nodes + 2 * len(generate("uniform-random", nodes, terms, gen_seed).edges) > 12:
                    gen_seed = derive(gen_seed, "retry")
            lines.append(f"instance gen:{spec} seed={gen_seed}")
        lines += [f"solver {s}" for s in self.solvers]
        return "\n".join(lines) + "\n"

    def setup(self, seed: int) -> "BenchPlan":
        return BenchPlan(self, [parse_config(self.suite_text(seed, u)) for u in range(self.suites)])


class BenchPlan:
    def __init__(self, workload: BenchWorkload, configs: list):
        self.workload = workload
        self.configs = configs

    default_solve = staticmethod(run_bench)

    @staticmethod
    def traced_solve(tracer):
        import powertree.bench

        return powertree.bench.run_bench  # the wrapper tracer.install() put there

    def run_unit(self, u: int, solve):
        start = time.perf_counter()
        report = solve(self.configs[u % len(self.configs)])
        return time.perf_counter() - start, report

    @staticmethod
    def signature(report: str) -> str:
        """The CSV without its wall_time_s column, which is all that may differ."""
        rows = list(csv.reader(io.StringIO(report)))
        col = rows[0].index("wall_time_s")
        return "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows)

    def check(self, seconds: float, report: str) -> list[Solve]:
        rows = [r for r in csv.DictReader(io.StringIO(report)) if r["row_type"] == "row"]
        optimum = {r["instance"]: Fraction(r["power"])
                   for r in rows if r["solver"] == "exact" and not r["error"]}
        out = []
        for r in rows:
            problems = []
            ratio = None
            if r["error"]:
                problems.append(f"{r['solver']} row error: {r['error']}")
            else:
                power, cost = Fraction(r["power"]), Fraction(r["cost"])
                opt = optimum.get(r["instance"])
                if opt is None:
                    problems.append("no exact row for the instance")
                elif power < opt:
                    problems.append(f"{r['solver']} power below the exact optimum")
                if not cost <= power <= 2 * cost:
                    problems.append(f"{r['solver']} power outside [cost, 2 cost]")
                if r["solver"] == "exact" and r["ratio_to_exact"] != "1.000000":
                    problems.append("exact row ratio is not 1")
                if r["solver"] == "irr":
                    ratio = float(r["ratio_to_exact"])
            out.append(Solve(float(r["wall_time_s"]), problems, ratio))
        return out

    @staticmethod
    def check_captured(results) -> list[list[str]]:
        """Tree checks on every solver output the traced pass captured, which
        the CSV alone cannot give: re-evaluation and spanning."""
        optimum = {id(inst): tree.total_power for inst, _, tree, layer in results
                   if layer == "exact.exact_min_power"}
        return [[f"{layer}: {p}" for p in check_tree(inst, mode, tree, optimum.get(id(inst)))]
                for inst, mode, tree, layer in results]


WORKLOADS = {
    w.name: w for w in (
        IrrWorkload(
            name="irr-spanning",
            mode="spanning", k=3, nodes=7, terminals=7, edge_prob=0.1,
            pool=512, tail_pct=90.0,
        ),
        IrrWorkload(
            name="irr-steiner-k4",
            mode="steiner", k=4, nodes=8, terminals=4, edge_prob=0.3,
            pool=512, tail_pct=98.0,
        ),
        BenchWorkload(
            name="bench-oracle",
            instances=("euclidean-powerlaw nodes=8 terminals=5",
                       "two-level nodes=10 terminals=5",
                       "two-level nodes=10 terminals=5",
                       "uniform-random nodes=10 terminals=5",
                       "reduction-wrapped nodes=4 terminals=4"),
            solvers=("exact", "mst", "steiner-cost", "irr"),
            reps=3, threads=2, suites=64, tail_pct=95.0,
        ),
    )
}
