"""Per-layer timing measured from outside the program.

`Tracer.install()` replaces public functions of `powertree` with wrappers
that time each call and count what it returned. Each name is replaced where
its caller looks it up (the importing module's globals, or the `Instance`
class), so no file of the package changes; `uninstall()` puts every original
back. Wrappers keep a per-thread span stack, so `irr.self_s` is the time of
`irr_solve` minus the wrapped calls made directly under it, and they add into
shared totals under one lock, so the two threads of the bench pool
accumulate safely.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

# (module whose global the caller reads, name, layer)
WRAPPED = [
    ("powertree.irr", "enumerate_columns", "components.enumerate_columns"),
    ("powertree.irr", "solve_lp", "lp.solve_lp"),
    ("powertree.irr", "extract_tree", "pruning.extract_tree"),
    ("powertree.irr", "evaluate", "instance.evaluate"),
    ("powertree.irr", "zero_power_tree_exists", "irr.zero_power_tree_exists"),
    ("powertree.lp", "lp_core_solve", "lp.lp_core_solve"),
    ("powertree.lp", "separate", "lp.separate"),
    ("powertree.lp", "row_support", "lp.row_support"),
    ("powertree.components", "min_power_component", "components.min_power_component"),
    ("powertree.components", "capped_state_search", "pathpower.capped_state_search"),
    ("powertree.components", "extract_tree", "pruning.extract_tree"),
    ("powertree.bench", "exact_min_power", "exact.exact_min_power"),
    ("powertree.bench", "baseline_min_cost", "exact.baseline_min_cost"),
    ("powertree.bench", "irr_solve", "irr.irr_solve"),
    ("powertree.bench", "run_bench", "bench.run_bench"),
]

# layers whose outputs (instance, required-node mode, PowerTree, layer) are kept for checks
SOLVER_LAYERS = ("exact.exact_min_power", "exact.baseline_min_cost", "irr.irr_solve")


def _mode(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs.get("mode", "steiner")


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.irr_self_s = 0.0
        self.exact_keys: set = set()
        self.solver_results: list[tuple[object, str, object, str]] = []

    def _count(self, layer: str, args, kwargs, result) -> None:
        """Counters taken from a call's result; runs under the lock."""
        c = self.counts
        if layer == "components.enumerate_columns":
            c["components.columns"] += len(result)
        elif layer == "lp.solve_lp":
            c["lp.rounds"] += len(result.objective_history)
            c["lp.rows"] += len(result.rows)
        elif layer == "lp.separate":
            c["lp.separate.hits"] += result is not None
        elif layer == "pathpower.capped_state_search":
            c["pathpower.states"] += len(result)
        elif layer == "irr.irr_solve":
            c["irr.iterations"] += result[1].iterations
            self.solver_results.append((args[0], "steiner", result[0], layer))
        elif layer in SOLVER_LAYERS:
            mode = _mode(args, kwargs)
            if layer == "exact.exact_min_power":
                self.exact_keys.add((args[0], mode))
            self.solver_results.append((args[0], mode, result, layer))

    def wrap(self, layer: str, fn):
        """`fn` timed and counted as one call into `layer`."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            below = [0.0]  # time of wrapped calls made directly under this one
            stack.append(below)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
            with tracer._lock:
                tracer.seconds[layer] += elapsed
                tracer.counts[layer + ".calls"] += 1
                if layer == "irr.irr_solve":
                    tracer.irr_self_s += elapsed - below[0]
                tracer._count(layer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        from powertree.instance import Instance

        for modname, name, layer in WRAPPED:
            module = importlib.import_module(modname)
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self.wrap(layer, original))
        self._saved.append((Instance, "with_costs", Instance.with_costs))
        Instance.with_costs = self.wrap("instance.with_costs", Instance.with_costs)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def snapshot(self) -> dict[str, int]:
        """Every count so far; each must repeat exactly on one seed."""
        with self._lock:
            out = dict(self.counts)
            out["exact.distinct"] = len(self.exact_keys)
        return out
