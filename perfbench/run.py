"""powertree benchmark: one seeded workload per run, checked, one JSON result.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
With --trace 0 the run measures the end-to-end metrics: several fresh
processes that only set up give `setup_s`, and one fresh process runs the
closed-loop pass for S seconds, with tracing off, and checks every result.
With --trace 1 one fresh process runs the untraced pass for S / 2 seconds,
replays its units with the layer wrappers of tracer.py installed, asserts
that the two agree, and reports the per-layer metrics. The last line of stdout is the result; the
line before it is a report with the details (tail percentile and sample
count, problems, layer shares, machine note).

The benchmark touches only the processes it starts: it drops no cache and
traces nothing system-wide.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench_state"
SETUP_PROBES = 5        # fresh set-up-only processes per run, after one warm-up
DEADLINE_S = 170.0      # every worker must end before the run's 180 s limit
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10         # samples a tail percentile needs beyond it

# per-layer metrics: (name, unit); layers timed by tracer.py report `.s` and `.calls`
TIMED_LAYERS = (
    "lp.solve_lp", "lp.lp_core_solve", "lp.separate", "lp.row_support",
    "components.enumerate_columns", "components.min_power_component",
    "pathpower.capped_state_search", "pruning.extract_tree", "instance.with_costs",
    "exact.exact_min_power", "exact.baseline_min_cost",
)
COUNTERS = ("lp.rounds", "lp.rows", "components.columns", "pathpower.states", "irr.iterations")


def spawn(role: str, args, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON output."""
    env = {k: v for k, v in os.environ.items() if k not in ("POWERTREE_THREADS", "PYTHONPATH")}
    cmd = [sys.executable, str(HERE / "worker.py"), role, args.workload,
           str(args.seed), str(args.seconds)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + [repr(t0)], capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {role} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float], pct: float) -> tuple[float, float, int]:
    """Nearest-rank percentile `pct`, or the highest one on the ladder with at
    least MIN_BEYOND samples beyond it when `pct` has fewer.
    Returns (value, percentile used, samples beyond it)."""
    xs = sorted(values)
    candidates = [pct] + [q for q in TAIL_LADDER if q < pct]
    for p in candidates:
        rank = max(1, math.ceil(len(xs) * p / 100))
        if len(xs) - rank >= MIN_BEYOND or p == candidates[-1]:
            return xs[rank - 1], p, len(xs) - rank


def machine_note(worker: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "isolation": "own processes only; no cache dropping, no system-wide tracing",
    }


def end_to_end(args, workload, deadline: float) -> tuple[dict, dict]:
    spawn("setup", args, deadline)  # warm-up: bytecode caches and the file cache
    setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = spawn("pass", args, deadline)
    setups.append(run["setup_s"])
    solve_s = run["solve_s"]
    tail_s, tail_pct, beyond = tail(solve_s, workload.tail_pct)
    metrics = {
        "solves_per_s": (len(solve_s) / run["pass_s"], "1/s"),
        "solve_s_p50": (statistics.median(solve_s), "s"),
        "solve_s_tail": (tail_s, "s"),
        # no ratio exists only when every solve failed, and then `correct` is false
        "ratio_mean": (statistics.fmean(run["ratios"]) if run["ratios"] else 0.0, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    report = {
        "pass_s": run["pass_s"], "units": run["units"], "solves": len(solve_s),
        "tail": {"percentile": tail_pct, "samples": len(solve_s), "beyond": beyond},
        "failed_frac": run["failed"] / run["attempted"],
        "setup_s_probes": setups,
    }
    return run, {"metrics": metrics, "report": report}


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "powertree").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def counters_repeat(args, per_unit: list[dict]) -> tuple[int, str]:
    """Compare each unit's counts with those a previous traced run of the same
    code and seed recorded. Returns (units that differ, note)."""
    path = STATE_DIR / f"{args.workload}-{args.seed}-{code_hash()}.json"
    previous = json.loads(path.read_text()) if path.exists() else []
    common = min(len(previous), len(per_unit))
    differ = [i for i in range(common) if previous[i] != per_unit[i]]
    if not differ and len(per_unit) > len(previous):
        STATE_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(per_unit))
    if not previous:
        return 0, "first traced run of this code and seed; its counts are kept for the next"
    if differ:
        return len(differ), (f"COUNTS DO NOT REPEAT: {len(differ)} of {common} units differ "
                             f"from the previous run on this seed, first unit {differ[0]}")
    return 0, f"counts repeat exactly on the {common} units this and the previous run share"


def per_layer(args, workload, deadline: float) -> tuple[dict, dict]:
    run = spawn("trace", args, deadline)
    sec, cnt = run["seconds"], run["counts"]
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[layer + ".s"] = (sec.get(layer, 0.0), "s")
        metrics[layer + ".calls"] = (cnt.get(layer + ".calls", 0), "count")
    for name in COUNTERS:
        metrics[name] = (cnt.get(name, 0), "count")
    separate_calls = cnt.get("lp.separate.calls", 0)
    exact_calls = cnt.get("exact.exact_min_power.calls", 0)
    bench = bool(cnt.get("bench.run_bench.calls"))
    solves = run["traced_solves"]
    mismatches, note = counters_repeat(args, run["per_unit_counts"])
    metrics.update({
        "lp.separate.hit_ratio": (cnt.get("lp.separate.hits", 0) / separate_calls if separate_calls else 0.0, "ratio"),
        "exact.distinct_ratio": (run["exact_distinct"] / exact_calls if exact_calls else 0.0, "ratio"),
        "instance.evaluate.s": (sec.get("instance.evaluate", 0.0), "s"),
        "irr.irr_solve.s": (sec.get("irr.irr_solve", 0.0), "s"),
        "irr.self_s": (run["irr_self_s"], "s"),
        "bench.run_bench.s": (sec.get("bench.run_bench", 0.0), "s"),
        "bench.rows": (solves if bench else 0, "count"),
        "trace.overhead_frac": (run["traced_pass_s"] / run["pass_s"] - 1.0, "ratio"),
        "trace.counter_mismatches": (mismatches, "count"),
    })
    # the pool's two threads overlap, so bench-oracle shares are of solver time
    base = sec.get("irr.irr_solve", 0.0)
    if bench:
        base += sec.get("exact.exact_min_power", 0.0) + sec.get("exact.baseline_min_cost", 0.0)
    report = {
        "units": run["units"], "untraced_pass_s": run["pass_s"], "traced_pass_s": run["traced_pass_s"],
        "untraced_solves_per_s": solves / run["pass_s"],
        "traced_solves_per_s": solves / run["traced_pass_s"],
        "shares_of": "solver time" if bench else "irr_solve time",
        "shares": {layer: round(sec.get(layer, 0.0) / base, 4) for layer in TIMED_LAYERS} if base else {},
        "counters": note,
        "reproduced": run["mismatched_units"] == 0,
    }
    return run, {"metrics": metrics, "report": report}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "powertree" / "__init__.py").is_file():
        print(f"no powertree sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        run, out = (per_layer if args.trace else end_to_end)(args, workload, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    whys = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    report = {"workload": args.workload, "why": whys.get(args.workload), "seed": args.seed,
              "trace": args.trace, **out["report"], "problems": run["problems"],
              "machine": machine_note(run)}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
