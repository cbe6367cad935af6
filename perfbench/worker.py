"""One benchmark pass in a fresh process; run.py starts it and reads its JSON.

usage: worker.py {setup,pass,trace} WORKLOAD SEED SECONDS T0

T0 is the CLOCK_MONOTONIC reading taken just before this process was started,
so `setup_s` covers interpreter start, importing powertree and numpy,
generating the inputs and parsing the suite configs, up to the first solve.

  setup  stop right before the first solve
  pass   closed loop of units for SECONDS, untraced, then check every result
  trace  an untraced pass for SECONDS / 2, then replay its units with the layer
         wrappers installed, assert that they reproduce it, and check both passes
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS_SHOWN = 5


def run_pass(plan, solve, seconds: float | None, units: int | None = None, after_unit=None):
    """Closed loop with one client: the next unit starts when the last ends.

    Runs until `seconds` have passed (finishing the unit in flight) or, when
    `units` is given, exactly that many units. Returns (per-unit seconds,
    outcomes, pass seconds).
    """
    unit_s, outcomes = [], []
    start = time.perf_counter()
    i = 0
    while (i < units) if units is not None else (time.perf_counter() - start < seconds):
        elapsed, outcome = plan.run_unit(i, solve)
        unit_s.append(elapsed)
        outcomes.append(outcome)
        if after_unit is not None:
            after_unit()
        i += 1
    return unit_s, outcomes, time.perf_counter() - start


def check_pass(plan, unit_s, outcomes) -> list:
    solves = []
    for elapsed, outcome in zip(unit_s, outcomes):
        solves += plan.check(elapsed, outcome)
    return solves


def summary(solves) -> dict:
    bad = [s for s in solves if s.problems]
    return {
        "solve_s": [s.seconds for s in solves],
        "ratios": [s.ratio for s in solves if s.ratio is not None],
        "attempted": len(solves),
        "failed": len(bad),
        "problems": [p for s in bad[:PROBLEMS_SHOWN] for p in s.problems],
    }


def main(argv: list[str]) -> int:
    role, name, seed, seconds, t0 = argv[0], argv[1], int(argv[2]), float(argv[3]), float(argv[4])
    sys.path.insert(0, str(ROOT / "src"))
    import powertree

    if not Path(powertree.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"powertree was imported from {powertree.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    plan = WORKLOADS[name].setup(seed)
    out: dict = {"setup_s": time.monotonic() - t0}
    if role == "setup":
        print(json.dumps(out))
        return 0

    import numpy

    # a traced run spends half its time untraced and replays that half traced
    untraced_s = seconds if role == "pass" else seconds / 2
    unit_s, outcomes, pass_s = run_pass(plan, plan.default_solve, untraced_s)
    out.update(pass_s=pass_s, units=len(outcomes), numpy=numpy.__version__)
    if role == "pass":
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(summary(check_pass(plan, unit_s, outcomes)))
        print(json.dumps(out))
        return 0

    from tracer import Tracer

    tracer = Tracer()
    per_unit: list[dict] = []
    last: dict = {}

    def record_counts() -> None:
        nonlocal last
        now = tracer.snapshot()
        per_unit.append({k: v - last.get(k, 0) for k, v in now.items() if v != last.get(k, 0)})
        last = now

    tracer.install()
    try:
        traced_solve = plan.traced_solve(tracer)
        traced_s, traced_outcomes, traced_pass_s = run_pass(
            plan, traced_solve, None, units=len(outcomes), after_unit=record_counts)
    finally:
        tracer.uninstall()

    mismatched = [i for i, (a, b) in enumerate(zip(outcomes, traced_outcomes))
                  if plan.signature(a) != plan.signature(b)]
    traced_checked = check_pass(plan, traced_s, traced_outcomes)
    checked = summary(check_pass(plan, unit_s, outcomes) + traced_checked)
    captured_checks = plan.check_captured(tracer.solver_results)
    captured = [p for p in captured_checks if p]
    checked["attempted"] += len(outcomes) + len(captured_checks)
    checked["failed"] += len(mismatched) + len(captured)
    if mismatched:
        checked["problems"].append(
            f"traced pass differs from the untraced pass in {len(mismatched)} units, first {mismatched[0]}")
    checked["problems"] += [p for ps in captured[:PROBLEMS_SHOWN] for p in ps]
    out.update(checked)
    out.update(
        traced_pass_s=traced_pass_s,
        traced_solves=len(traced_checked),
        mismatched_units=len(mismatched),
        seconds=dict(tracer.seconds),
        counts=dict(tracer.counts),
        irr_self_s=tracer.irr_self_s,
        exact_distinct=len(tracer.exact_keys),
        per_unit_counts=per_unit,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
