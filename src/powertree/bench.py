"""Batch benchmark harness: seeded suites and their CSV report.

Config files are line oriented ('#' comments): `key = value` settings plus
repeated `instance` and `solver` stanzas, e.g.

    seed = 42
    reps = 2
    k = 3
    mode = spanning
    instance gen:uniform-random nodes=8 terminals=8 seed=5
    instance file:examples/small.mpst
    solver exact
    solver mst
    solver irr

Rows run one after another on the calling thread, in config order (each
instance, each solver, each rep). Under the interpreter lock a thread pool
only added waits, so `threads` is parsed and bounds-checked for existing
suite files but selects nothing. Per-row seeds derive from sha256(master
seed, row index). The wall_time_s column is the only non-reproducible one
and is excluded from golden comparisons.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .analysis import theoretical_factor
from .exact import baseline_min_cost, exact_min_power
from .generators import generate
from .instance import Instance, PowerTree, format_cost, parse_cost, parse_instance
from .irr import RunTrace, irr_solve

CSV_HEADER = [
    "schema", "row_type", "instance", "solver", "seed", "power", "cost",
    "ratio_to_exact", "iterations", "wall_time_s", "mean_ratio", "max_ratio",
    "factor_spanning", "factor_steiner", "error",
]
SCHEMA = "powertree-bench-v1"

KNOWN_SOLVERS = ("exact", "mst", "steiner-cost", "irr")
# the largest `threads` a suite may give, and most rows (instances x solvers
# x reps) in one suite
MAX_THREADS = 64
MAX_ROWS = 10_000


class BenchError(ValueError):
    """Raised on malformed suite configs."""


@dataclass
class SuiteConfig:
    seed: int = 0
    reps: int = 1
    k: int = 3
    mode: str = "steiner"
    max_iters: int | None = None
    threads: int = 4  # accepted and bounds-checked; rows always run on the calling thread
    instances: list[tuple[str, str]] = field(default_factory=list)  # (label, spec)
    solvers: list[str] = field(default_factory=list)


def parse_config(text: str) -> SuiteConfig:
    cfg = SuiteConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("instance "):
            spec = line[len("instance "):].strip()
            cfg.instances.append((f"i{len(cfg.instances)}", spec))
        elif line.startswith("solver "):
            name = line[len("solver "):].strip()
            if name not in KNOWN_SOLVERS:
                raise BenchError(f"line {lineno}: unknown solver {name!r}")
            cfg.solvers.append(name)
        elif "=" in line:
            key, _, value = (p.strip() for p in line.partition("="))
            if key in ("seed", "reps", "k", "max_iters", "threads"):
                try:
                    number = int(value)
                except ValueError:
                    raise BenchError(f"line {lineno}: {key} must be an integer, got {value!r}") from None
                if key in ("reps", "threads", "max_iters") and number < 1:
                    raise BenchError(f"line {lineno}: {key} must be >= 1")
                if key == "k" and not 2 <= number <= 4:
                    raise BenchError(f"line {lineno}: k must be in [2, 4], got {number}")
                setattr(cfg, key, number)
            elif key == "mode":
                if value not in ("steiner", "spanning"):
                    raise BenchError(f"line {lineno}: mode must be steiner or spanning")
                cfg.mode = value
            else:
                raise BenchError(f"line {lineno}: unknown key {key!r}")
        else:
            raise BenchError(f"line {lineno}: cannot parse {raw.strip()!r}")
    if not cfg.instances:
        raise BenchError("config lists no instances")
    if not cfg.solvers:
        raise BenchError("config lists no solvers")
    if cfg.threads > MAX_THREADS:
        raise BenchError(f"threads must be at most {MAX_THREADS}, got {cfg.threads}")
    rows = len(cfg.instances) * len(cfg.solvers) * cfg.reps
    if rows > MAX_ROWS:
        raise BenchError(f"suite has {rows} rows (instances x solvers x reps), at most {MAX_ROWS} allowed")
    return cfg


def _load_instance(spec: str, mode: str) -> Instance:
    if spec.startswith("file:"):
        with open(spec[len("file:"):], encoding="utf-8") as fh:
            inst = parse_instance(fh.read())
    elif spec.startswith("gen:"):
        body = spec[len("gen:"):].split()
        if not body:
            raise BenchError(f"instance {spec!r} names no generator kind")
        kind, *params = body
        kwargs: dict = {}
        for item in params:
            key, _, value = item.partition("=")
            if key in ("low", "high"):
                kwargs[key] = parse_cost(value)  # its InstanceError names the cost
            elif key in ("nodes", "terminals", "seed", "cost_max", "exponent", "grid", "edge_prob"):
                try:
                    kwargs[key] = float(value) if key == "edge_prob" else int(value)
                except ValueError:
                    raise BenchError(f"instance {spec!r}: bad {key} value {value!r}") from None
            else:
                raise BenchError(f"instance {spec!r}: unknown generator parameter {key!r}")
        missing = [key for key in ("nodes", "terminals", "seed") if key not in kwargs]
        if missing:
            raise BenchError(f"instance {spec!r} lacks generator parameter {', '.join(missing)}")
        inst = generate(kind, **kwargs)
    else:
        raise BenchError(f"instance spec must start with file: or gen:, got {spec!r}")
    return with_mode(inst, mode)


def with_mode(instance: Instance, mode: str) -> Instance:
    """The instance itself in steiner mode; every node a terminal in spanning mode."""
    if mode != "spanning":
        return instance
    return Instance(instance.node_count, instance.edges, frozenset(range(instance.node_count)), instance.root)


def derive_seed(master: int, row_index: int) -> int:
    digest = hashlib.sha256(f"{master}:{row_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_solver(
    instance: Instance, solver: str, mode: str, k: int, seed: int, max_iters: int | None,
) -> tuple[PowerTree, RunTrace | None]:
    """Solve with one of KNOWN_SOLVERS; only irr (which uses k, seed and
    max_iters) returns a trace. The solvers are module globals looked up per
    call, so wrappers installed on this module see every call."""
    if solver == "exact":
        return exact_min_power(instance, mode), None
    if solver == "mst":
        return baseline_min_cost(instance, "spanning"), None
    if solver == "steiner-cost":
        return baseline_min_cost(instance, "steiner"), None
    if solver == "irr":
        return irr_solve(instance, k, seed, max_iters)
    raise BenchError(f"unknown solver {solver!r}")


def run_bench(cfg: SuiteConfig) -> str:
    """Execute the suite and return the CSV report text."""
    instances = [(label, _load_instance(spec, cfg.mode)) for label, spec in cfg.instances]

    solved: list[tuple[dict, Fraction | None]] = []  # each row's CSV record, and its power when it solved
    for idx, ((label, inst), solver, _) in enumerate(product(instances, cfg.solvers, range(cfg.reps))):
        seed = derive_seed(cfg.seed, idx)
        out = dict.fromkeys(CSV_HEADER, "")
        out.update(schema=SCHEMA, row_type="row", instance=label, solver=solver, seed=str(seed))
        power = None
        start = time.perf_counter()
        try:
            tree, trace = run_solver(inst, solver, cfg.mode, cfg.k, seed, cfg.max_iters)
            out["power"] = format_cost(tree.total_power)
            out["cost"] = format_cost(tree.total_cost)
            out["iterations"] = str(trace.iterations) if trace else ""
            power = tree.total_power
        except Exception as exc:  # row-level failures never abort the suite
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["wall_time_s"] = f"{time.perf_counter() - start:.4f}"
        solved.append((out, power))

    # the exact solver is deterministic: every rep of an instance has the same optimum
    exact_power = {out["instance"]: power for out, power in solved
                   if out["solver"] == "exact" and power is not None}
    for out, power in solved:
        ref = exact_power.get(out["instance"])
        if power is None or ref is None:
            continue
        try:
            if ref > 0:
                out["ratio_to_exact"] = f"{float(power / ref):.6f}"
            elif power == 0:
                out["ratio_to_exact"] = "1.000000"
        except OverflowError:  # a ratio past float range
            out["ratio_to_exact"] = "inf"
    results = [out for out, _ in solved]

    # summary block: per-solver mean/max ratios plus the theoretical factors
    summary_rows = []
    for solver in dict.fromkeys(cfg.solvers):
        ratios = [
            float(r["ratio_to_exact"]) for r in results
            if r["solver"] == solver and r["ratio_to_exact"]
        ]
        summary = dict.fromkeys(CSV_HEADER, "")
        summary.update(
            schema=SCHEMA, row_type="summary", instance="ALL", solver=solver,
            mean_ratio=f"{sum(ratios) / len(ratios):.6f}" if ratios else "",
            max_ratio=f"{max(ratios):.6f}" if ratios else "",
            factor_spanning=f"{float(theoretical_factor('spanning')):.7f}",
            factor_steiner=f"{theoretical_factor('steiner'):.7f}",
        )
        summary_rows.append(summary)

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for r in results + summary_rows:
        writer.writerow(r)
    return buffer.getvalue()
