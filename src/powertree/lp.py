"""Component-based cut LP: dual simplex core, max-flow separation, cutting planes.

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

from .components import ColumnSet
from .instance import Instance

DEFAULT_TOL = 1e-7
MAX_ROUNDS = 10_000
_PIVOT_EPS = 1e-9


class LpError(ValueError):
    """Raised on infeasible LPs or exceeded iteration caps."""


@dataclass
class LpState:
    columns: ColumnSet
    rows: list[frozenset[int]]
    x: dict[int, float]
    objective: float
    objective_history: tuple[float, ...] = ()

    def column_mass(self) -> float:
        return sum(self.x.values())


def row_support(columns: ColumnSet, cut: frozenset[int]) -> list[int]:
    """Column indices entering the cut row for W: sink outside W, Q meets W."""
    w = columns.mask(cut)
    return [
        j for j, mask, sink in zip(range(len(columns)), columns.masks, columns.sink_bits)
        if mask & w and not sink & w
    ]


class _DualSimplex:
    """Dual simplex tableau of min c.x over {x >= 0, A x >= 1}, kept across rows.

    Each row i of A is stored as -A_i x + s_i = -1 with its surplus s_i, so
    the surplus basis is dual feasible (every cost is >= 0) and needs no
    phase 1; a row appended later keeps the basis dual feasible, so pivoting
    resumes where it stopped. Row 0 holds the reduced costs of c / max(c),
    which makes the pivots independent of the cost scale; row 1 + i holds
    constraint i. Column 0 is the right-hand side, column 1 + j is x_j and
    column 1 + n + i is s_i.
    """

    def __init__(self, objective: list[float]):
        self.objective = objective
        self.n = len(objective)
        self.tableau = np.zeros((1, 1 + self.n))
        self.tableau[0, 1:] = objective
        scale = max(objective, default=0.0)
        if scale > 0.0:
            self.tableau[0, 1:] /= scale
        self.basis = np.zeros(0, dtype=np.intp)  # tableau column basic in row 1 + i

    def add_row(self, support: list[int]) -> None:
        """Append the row sum_{j in support} x_j >= 1 with its surplus basic."""
        m, width = self.tableau.shape
        t = np.zeros((m + 1, width + 1))
        t[:m, :width] = self.tableau
        row = t[m]
        row[0] = -1.0
        row[1 + np.asarray(support, dtype=np.intp)] = -1.0
        row[width] = 1.0
        row -= row[self.basis] @ t[1:m]  # zero the entries under basic columns
        self.tableau = t
        self.basis = np.append(self.basis, width)

    def solve(self) -> tuple[dict[int, float], float]:
        """Pivot until every row is feasible; return the basic x and its value.

        Bland's rule for the dual: the infeasible row with the smallest basic
        index leaves, and the minimum-ratio column enters, ties going to the
        smallest index. Deterministic and cycle-free.
        """
        t, basis = self.tableau, self.basis
        while True:
            rows = np.flatnonzero(t[1:, 0] < -_PIVOT_EPS)
            if rows.size == 0:
                break
            r = 1 + rows[np.argmin(basis[rows])]
            cols = 1 + np.flatnonzero(t[r, 1:] < -_PIVOT_EPS)
            if cols.size == 0:
                raise LpError("infeasible: no fractional solution covers every cut row")
            enter = cols[np.argmin(t[0, cols] / -t[r, cols])]
            t[r] /= t[r, enter]
            col = t[:, enter].copy()
            col[r] = 0.0
            t -= np.outer(col, t[r])
            basis[r - 1] = enter
        x = {}
        for i, b in enumerate(basis):
            # keep even tiny masses: truncation here would leak into the
            # separation oracle as spurious row violations
            if b <= self.n and t[1 + i, 0] > 0.0:
                x[int(b) - 1] = float(t[1 + i, 0])
        value = sum(self.objective[j] * xv for j, xv in x.items())
        return x, value


def lp_core_solve(
    row_supports: list[list[int]],
    n_cols: int,
    objective: list[float],
) -> tuple[dict[int, float], float]:
    """Minimize objective over {x >= 0, sum_{j in support} x_j >= 1 per row}.

    One cold solve of the tableau `solve_lp` warm-starts. Returns the optimal
    basic solution as a sparse dict and its value. Every support index must
    lie in [0, n_cols).
    """
    if len(objective) != n_cols:
        raise LpError(f"objective has {len(objective)} entries for {n_cols} columns")
    for support in row_supports:
        bad = [j for j in support if not 0 <= j < n_cols]
        if bad:
            raise LpError(f"support index {bad[0]} outside [0, {n_cols})")
    lp = _DualSimplex(objective)
    for support in row_supports:
        lp.add_row(support)
    return lp.solve()


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

    def max_flow(self, s: int, t: int, cap0: list[float], enough: float) -> float:
        """Augment from s to t until no path is left or the flow reaches
        `enough`; below `enough` the flow and `reachable(s)` are exact."""
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
            if total >= enough:
                return total

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
    columns: ColumnSet,
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
    live = [j for j in sorted(x) if x[j] > 0.0]
    net = _FlowNet(len(terms) + len(live))
    inf = sum(x.values()) + 1.0
    for gadget, j in enumerate(live, len(terms)):
        i, sink = columns.column(j)
        net.add(gadget, index[sink], x[j])
        for q in columns.sets[i]:
            if q != sink:
                net.add(index[q], gadget, inf)
    cap0 = list(net.cap)

    root = index[instance.root]
    worst: tuple[float, int, set[int]] | None = None
    for t in terms:
        if t == instance.root:
            continue
        # a terminal whose flow reaches 1 - tol is not violated: stop there
        flow = net.max_flow(index[t], root, cap0, 1.0 - tol)
        if flow < 1.0 - tol and (worst is None or flow < worst[0]):
            worst = (flow, t, net.reachable(index[t]))
    if worst is None:
        return None
    reachable = worst[2]
    return frozenset(t for t in terms if index[t] in reachable)


def solve_lp(
    instance: Instance,
    columns: ColumnSet,
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
    rows: list[frozenset[int]] = [frozenset({t}) for t in others]
    known = set(rows)
    if not rows:
        return LpState(columns, [], {}, 0.0)
    if not columns:
        raise LpError(f"infeasible: terminal {others[0]} has no covering column")
    supports = [row_support(columns, w) for w in rows]
    for t, support in zip(others, supports):
        if not support:
            raise LpError(f"infeasible: terminal {t} has no covering column")
    # int true division rounds correctly, so each price is float(p_Q)
    prices = []
    for power, members in zip(columns.powers, columns.members):
        prices.extend([power / columns.scale] * len(members))
    lp = _DualSimplex(prices)
    for support in supports:
        lp.add_row(support)
    history: list[float] = []
    for _ in range(MAX_ROUNDS):
        x, value = lp.solve()
        history.append(value)
        cut = separate(instance, columns, x, tol)
        if cut is None:
            return LpState(columns, list(rows), x, value, tuple(history))
        if cut in known:
            raise LpError(f"separation returned an existing row {sorted(cut)}; tolerance mismatch")
        rows.append(cut)
        known.add(cut)
        lp.add_row(row_support(columns, cut))
    raise LpError(f"cutting-plane loop exceeded {MAX_ROUNDS} rounds")
