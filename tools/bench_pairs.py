"""Run the benchmark on a base commit and on the working tree in alternated
pairs, and write both sides' runs and medians to BENCH_<label>.json.

usage: python tools/bench_pairs.py LABEL [--base REV] [--pairs N] [--seed S ...]
                                   [--workload NAME ...]

The base commit (default HEAD, the parent of uncommitted work) is exported
with `git archive` into the git-ignored `.bench_build/<commit>/`. Each pair
runs the command of BENCHMARK.json with `--trace 0` and its `run_seconds` once
in each tree, per workload and seed (every workload of BENCHMARK.json unless
`--workload` names some); the side that runs first alternates from
pair to pair. Nothing under `perfbench/` is changed. The output holds, per
workload, seed and end-to-end metric, both medians, the base's quartile
distance, the change over the base median, a verdict, and every run; per
side the failed and attempted solve counts of each run; and the benchmark's
machine note. A run whose command fails is kept as an error and counted in
`run_errors`.

The verdict applies the no-regression rule to one metric on one workload and
seed, with the metric's bound taken relative to the base median:

  worse       the change median is worse than the base median by more than
              the bound
  unresolved  the base runs' quartile distance exceeds the bound, and not
              every change run beats every base run
  ok          otherwise
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str) -> tuple[str, Path]:
    """The commit id of `rev` and a fresh export of its tree."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    tree = BUILD / commit
    if not tree.is_dir():
        archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        staging = BUILD / (commit + ".partial")
        shutil.rmtree(staging, ignore_errors=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(staging, filter="data")
        staging.rename(tree)
    return commit, tree


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One `--trace 0` run in `tree`: its result line and report, or its error."""
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return {"result": json.loads(lines[-1]), "report": json.loads(lines[-2])["report"]}


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base_runs: list[float], change_runs: list[float], better: str, bound: float) -> str:
    """`worse`, `unresolved` or `ok` by the rule in the module docstring."""
    sign = 1 if better == "higher" else -1  # sign * value grows as the metric improves
    base = statistics.median(base_runs)
    if sign * (base - statistics.median(change_runs)) > bound * abs(base):
        return "worse"
    beats_every_base_run = min(sign * v for v in change_runs) > max(sign * v for v in base_runs)
    if quartile_distance(base_runs) > bound * abs(base) and not beats_every_base_run:
        return "unresolved"
    return "ok"


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Medians, spread and every value per metric, and solve counts per side."""
    ok = {side: [r["result"] for r in runs[side] if "result" in r] for side in SIDES}
    out: dict = {"metrics": {}}
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in ok[side]] for side in SIDES}
        entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        if all(values.values()):
            base, change = (statistics.median(values[side]) for side in SIDES)
            entry.update(base_median=base, change_median=change,
                         base_quartile_distance=quartile_distance(values["base"]),
                         change_vs_base=(change - base) / base if base else None,
                         verdict=verdict(values["base"], values["change"], m["better"], m["bound"]))
        entry.update({side + "_runs": values[side] for side in SIDES})
        out["metrics"][m["name"]] = entry
    for side in SIDES:
        out[side + "_failed"] = [r["failed"] for r in ok[side]]
        out[side + "_attempted"] = [r["attempted"] for r in ok[side]]
        out[side + "_run_errors"] = [r["error"] for r in runs[side] if "error" in r]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--base", default="HEAD", help="commit to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, action="append", help="benchmark seed (repeatable; default 1)")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default every workload of BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seeds = args.seed or [1]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if word in ("python", "python3") else word for word in spec["command"]]
    workloads = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(workloads))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json has {', '.join(workloads)}")
    if args.workload:
        workloads = [w for w in workloads if w in args.workload]
    commit, base_tree = export(args.base)
    trees = {"base": base_tree, "change": ROOT}

    runs = {(w, s): {side: [] for side in SIDES} for w in workloads for s in seeds}
    machine = None
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for s in seeds:
                for side in order:
                    run = run_once(trees[side], command, w, s, spec["run_seconds"])
                    runs[w, s][side].append(run)
                    if machine is None and "report" in run:
                        machine = run["report"]["machine"]
                    status = run.get("error") or run["result"]["metrics"]["solves_per_s"]["value"]
                    print(f"pair {pair + 1}/{args.pairs} {w} seed {s} {side}: {status}", file=sys.stderr)

    head = git("rev-parse", "HEAD")
    out = {
        "label": args.label,
        "base": {"rev": args.base, "commit": commit},
        "change": {"tree": "working tree", "head": head, "dirty": bool(git("status", "--porcelain"))},
        "command": spec["command"] + ["--trace", "0", "--seconds", str(spec["run_seconds"])],
        "pairs": args.pairs,
        "order": "the side that runs first alternates from pair to pair, base first in pair 1",
        "machine": machine,
        "workloads": {w: {str(s): summarize(runs[w, s], spec["end_to_end"]) for s in seeds} for w in workloads},
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for w in workloads:
        for s in seeds:
            for name, m in out["workloads"][w][str(s)]["metrics"].items():
                if "base_median" in m:
                    spread = m["base_quartile_distance"] / m["base_median"] if m["base_median"] else 0.0
                    change = f"{m['change_vs_base']:+.1%}" if m["change_vs_base"] is not None else "n/a"
                    print(f"{w:15} seed {s} {name:13} base {m['base_median']:.4g} change {m['change_median']:.4g} "
                          f"({change}; base quartile distance {spread:.1%}): {m['verdict']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
