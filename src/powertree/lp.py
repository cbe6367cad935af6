"""Component-based cut LP: simplex core, max-flow separation, cutting planes.

The LP has one variable per directed component (Q, s) with objective
coefficient p_Q; a cut row for W demands one unit of mass on columns with
s outside W and Q touching W. Rows are generated lazily: starting from the
singleton rows, a max-flow separation oracle finds violated cuts until the
fractional solution routes one unit of flow from every terminal to the root.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .components import Component
from .instance import Instance

DEFAULT_TOL = 1e-7
MAX_ROUNDS = 10_000
_PIVOT_EPS = 1e-9


class LpError(ValueError):
    """Raised on infeasible LPs or exceeded iteration caps."""


@dataclass
class LpState:
    columns: list[Component]
    rows: list[frozenset[int]]
    x: dict[int, float]
    objective: float
    objective_history: tuple[float, ...] = ()

    def column_mass(self) -> float:
        return sum(self.x.values())


def row_support(columns: list[Component], cut: frozenset[int]) -> list[int]:
    """Column indices entering the cut row for W: sink outside W, Q meets W."""
    return [
        j for j, col in enumerate(columns)
        if col.sink not in cut and col.terminal_set & cut
    ]


def lp_core_solve(
    row_supports: list[list[int]],
    n_cols: int,
    objective: list[float],
) -> tuple[dict[int, float], float]:
    """Minimize objective over {x >= 0, sum_{j in support} x_j >= 1 per row}.

    Dense two-phase simplex with Bland's rule (smallest eligible index
    enters; smallest basic index leaves on ratio ties): deterministic and
    cycle-free. Returns the optimal basic solution as a sparse dict.
    """
    m = len(row_supports)
    if m == 0:
        return {}, 0.0
    n_total = n_cols + 2 * m  # x, surplus, artificial
    tableau = np.zeros((m, n_total + 1))
    for i, support in enumerate(row_supports):
        for j in support:
            tableau[i, j] = 1.0
        tableau[i, n_cols + i] = -1.0          # surplus
        tableau[i, n_cols + m + i] = 1.0       # artificial
        tableau[i, n_total] = 1.0
    basis = [n_cols + m + i for i in range(m)]

    def pivot(z_row: np.ndarray, row: int, col: int) -> None:
        tableau[row] /= tableau[row, col]
        for r in range(m):
            if r != row and tableau[r, col] != 0.0:
                tableau[r] -= tableau[r, col] * tableau[row]
        z_row -= z_row[col] * tableau[row]
        basis[row] = col

    def run(z_row: np.ndarray, allowed: range | list[int]) -> None:
        while True:
            enter = next((j for j in allowed if z_row[j] < -_PIVOT_EPS), None)
            if enter is None:
                return
            leave = None
            best_ratio = None
            for i in range(m):
                coef = tableau[i, enter]
                if coef > _PIVOT_EPS:
                    ratio = tableau[i, n_total] / coef
                    if (
                        best_ratio is None
                        or ratio < best_ratio - _PIVOT_EPS
                        or (abs(ratio - best_ratio) <= _PIVOT_EPS and basis[i] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave is None:
                raise LpError("internal error: unbounded LP")
            pivot(z_row, leave, enter)

    # phase 1: drive artificials to zero
    z1 = np.zeros(n_total + 1)
    z1[n_cols + m:n_total] = 1.0
    for i in range(m):
        z1 -= tableau[i]  # basic artificial columns must read zero
    run(z1, range(n_cols + m))
    if -z1[n_total] > 1e-6:
        raise LpError("infeasible: no fractional solution covers every cut row")
    for i in range(m):
        if basis[i] >= n_cols + m:
            col = next(
                (j for j in range(n_cols + m) if abs(tableau[i, j]) > _PIVOT_EPS),
                None,
            )
            if col is not None:
                pivot(z1, i, col)
            # else: redundant row; artificial stays basic at zero harmlessly

    # phase 2: original objective
    z2 = np.zeros(n_total + 1)
    z2[:n_cols] = objective
    for i in range(m):
        if basis[i] < n_cols:
            z2 -= z2[basis[i]] * tableau[i]
    run(z2, range(n_cols + m))

    x = {}
    for i in range(m):
        # keep even tiny masses: truncation here would leak into the
        # separation oracle as artificial row violations
        if basis[i] < n_cols and tableau[i, n_total] > 0.0:
            x[basis[i]] = float(tableau[i, n_total])
    value = sum(objective[j] * xv for j, xv in x.items())
    return x, value


# ---------------------------------------------------------------------------
# max-flow separation


class _FlowNet:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add(self, u: int, v: int, cap: float) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def max_flow(self, s: int, t: int, cap0: list[float]) -> float:
        self.cap = list(cap0)
        total = 0.0
        while True:
            prev_edge = [-1] * self.n
            prev_edge[s] = -2
            queue = deque([s])
            while queue and prev_edge[t] == -1:
                u = queue.popleft()
                for eid in self.head[u]:
                    v = self.to[eid]
                    if prev_edge[v] == -1 and self.cap[eid] > 1e-12:
                        prev_edge[v] = eid
                        queue.append(v)
            if prev_edge[t] == -1:
                return total
            bottleneck = None
            v = t
            while v != s:
                eid = prev_edge[v]
                if bottleneck is None or self.cap[eid] < bottleneck:
                    bottleneck = self.cap[eid]
                v = self.to[eid ^ 1]
            v = t
            while v != s:
                eid = prev_edge[v]
                self.cap[eid] -= bottleneck
                self.cap[eid ^ 1] += bottleneck
                v = self.to[eid ^ 1]
            total += bottleneck

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for eid in self.head[u]:
                v = self.to[eid]
                if v not in seen and self.cap[eid] > 1e-12:
                    seen.add(v)
                    stack.append(v)
        return seen


def separate(
    instance: Instance,
    columns: list[Component],
    x: dict[int, float],
    tol: float = DEFAULT_TOL,
) -> frozenset[int] | None:
    """Most violated cut row, or None when every terminal routes unit flow.

    Auxiliary digraph: a gadget node per column of positive mass x_{Q,s},
    with infinite-capacity arcs from each q in Q - {s} and an arc of
    capacity x_{Q,s} into s (a massless column's gadget would only be a
    dead end, so it is left out); terminal t is separated iff its max flow
    to the root falls below 1 - tol. Returns the terminal side of the min
    cut intersected with the terminal set.
    """
    terms = sorted(instance.terminals)
    index = {t: i for i, t in enumerate(terms)}
    live = [j for j in range(len(columns)) if x.get(j, 0.0) > 0.0]
    net = _FlowNet(len(terms) + len(live))
    inf = sum(x.values()) + 1.0
    for gadget, j in enumerate(live, len(terms)):
        col = columns[j]
        net.add(gadget, index[col.sink], x[j])
        for q in col.terminal_set:
            if q != col.sink:
                net.add(index[q], gadget, inf)
    cap0 = list(net.cap)

    root = index[instance.root]
    worst: tuple[float, int, set[int]] | None = None
    for t in terms:
        if t == instance.root:
            continue
        flow = net.max_flow(index[t], root, cap0)
        if flow < 1.0 - tol and (worst is None or flow < worst[0]):
            worst = (flow, t, net.reachable(index[t]))
    if worst is None:
        return None
    reachable = worst[2]
    return frozenset(t for t in terms if index[t] in reachable)


def solve_lp(
    instance: Instance,
    columns: list[Component],
    tol: float = DEFAULT_TOL,
) -> LpState:
    """Cutting-plane solve of the component LP restricted to the given columns.

    Starts from the singleton rows {t}, alternates LP solves with the
    separation oracle, and stops when no violated cut remains, so the
    returned x is feasible for all 2^(|R|-1)-1 rows within tol.
    """
    if not (0 < tol <= 1e-4):
        raise LpError(f"tol must be in (0, 1e-4], got {tol}")
    terms = sorted(instance.terminals)
    others = [t for t in terms if t != instance.root]
    for t in others:
        if not any(t in col.terminal_set and col.sink != t for col in columns):
            raise LpError(f"infeasible: terminal {t} has no covering column")
    objective = [float(col.power) for col in columns]
    rows: list[frozenset[int]] = [frozenset({t}) for t in others]
    known = set(rows)
    if not rows:
        return LpState(list(columns), [], {}, 0.0)
    supports = [row_support(columns, w) for w in rows]
    history: list[float] = []
    for _ in range(MAX_ROUNDS):
        x, value = lp_core_solve(supports, len(columns), objective)
        history.append(value)
        cut = separate(instance, columns, x, tol)
        if cut is None:
            return LpState(list(columns), list(rows), x, value, tuple(history))
        if cut in known:
            raise LpError(f"separation returned an existing row {sorted(cut)}; tolerance mismatch")
        rows.append(cut)
        known.add(cut)
        supports.append(row_support(columns, cut))
    raise LpError(f"cutting-plane loop exceeded {MAX_ROUNDS} rounds")
