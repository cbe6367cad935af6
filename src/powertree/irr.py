"""Iterative randomized rounding for min-power Steiner tree.

Each iteration samples one column (Q, s) of the column LP on the current
costs with probability proportional to x_{Q,s} (which makes the sampled
terminal set Q appear with probability proportional to its summed mass),
zeroes the sampled component's edge costs, and halts once the zero-cost
subgraph connects the terminals. Edges are zeroed, never contracted:
contraction could silently change node powers. The columns and the LP are
recomputed only after a sample zeroes some edge; a sample whose edges all
cost 0 already leaves the costs, and so the columns and x, as they were, and
the next iteration draws again from the same x.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .components import enumerate_columns
from .graph import connects
from .instance import Instance, PowerTree, evaluate, format_cost
from .lp import solve_lp
from .pruning import extract_tree


class IrrError(RuntimeError):
    """Raised when the iteration cap is reached; carries the partial trace."""

    def __init__(self, message: str, trace: "RunTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    lp_objective: float
    sampled_terminals: tuple[int, ...] | None
    sampled_sink: int | None
    sampled_power: Fraction | None
    new_zero_edges: int

    def to_record(self) -> dict:
        return {
            "iteration": self.iteration,
            "lp_objective": self.lp_objective,
            "sampled_terminals": list(self.sampled_terminals) if self.sampled_terminals else None,
            "sampled_sink": self.sampled_sink,
            "sampled_power": format_cost(self.sampled_power) if self.sampled_power is not None else None,
            "new_zero_edges": self.new_zero_edges,
        }


@dataclass
class RunTrace:
    """Per-iteration log of one run. RNG discipline: exactly one uniform draw
    per sampling iteration, in iteration order. An iteration whose record has
    `new_zero_edges` 0 changed no cost, so the next one samples the same LP
    solution (its `lp_objective` repeats). A single-terminal instance has no
    columns to sample; its trace holds one sentinel iteration with no sampled
    component."""

    seed: int
    records: list[IterationRecord] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.records)

    def sampled_power_total(self) -> Fraction:
        return sum(
            (r.sampled_power for r in self.records if r.sampled_power is not None),
            Fraction(0),
        )


def zero_power_tree_exists(instance: Instance) -> bool:
    """True iff the zero-cost subgraph connects all terminals."""
    zero = (e for e, w in zip(instance.edges, instance.weights) if not w)
    return connects(instance.node_count, zero, instance.terminals)


def prune(instance: Instance, edge_ids) -> PowerTree:
    """Extract a tree spanning the terminals from a connected edge set.

    Power is evaluated under the instance's own (original) costs and never
    exceeds the power of the input edge set.
    """
    return evaluate(instance, extract_tree(instance, edge_ids, instance.terminals))


def irr_solve(
    instance: Instance,
    k: int,
    seed: int,
    max_iters: int | None = None,
) -> tuple[PowerTree, RunTrace]:
    """Run the iterative randomized rounding algorithm; deterministic per seed.

    Returns the pruned solution (evaluated under the original costs) and the
    run trace. Raises IrrError with the partial trace if max_iters is hit
    (default cap: 50 * |E|), and ComponentError for k outside [2, 4].
    """
    if max_iters is None:
        max_iters = max(1, 50 * len(instance.edges))
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = random.Random(seed)
    trace = RunTrace(seed=seed)
    costs = [c for _, _, c in instance.edges]
    current = instance  # rebuilt only when a sampled component zeroes costs
    columns = None  # recomputed, with the LP, only when the costs change

    for iteration in range(1, max_iters + 1):
        if columns is None:
            columns = enumerate_columns(current, k)
            state = solve_lp(current, columns) if columns else None
        new_zeros = 0
        if columns:
            total_mass = state.column_mass()
            draw = rng.random()
            target = draw * total_mass
            pick = None
            acc = 0.0
            for j in sorted(state.x):
                acc += state.x[j]
                pick = j
                if target < acc:
                    break
            if pick is None:
                raise IrrError("no sampleable column (zero LP mass)", trace)
            comp = columns[pick]
            new_zeros = sum(1 for e in comp.edges if current.weights[e])
            trace.records.append(IterationRecord(
                iteration, state.objective, tuple(sorted(comp.terminal_set)),
                comp.sink, comp.power, new_zeros,
            ))
            if new_zeros:
                for e in comp.edges:
                    costs[e] = 0
                current = instance.with_costs(costs)
                columns = None
        else:
            trace.records.append(IterationRecord(iteration, 0.0, None, None, None, 0))
        # unchanged costs already failed this check, except before the first one
        if (new_zeros or iteration == 1) and zero_power_tree_exists(current):
            return prune(instance, [e for e, w in enumerate(current.weights) if not w]), trace
    raise IrrError(f"iteration cap {max_iters} reached without a zero-power tree", trace)
