"""Component-based cut LP: dual simplex core, max-flow separation, cutting planes.

The LP has one variable per directed component (Q, s) with objective
coefficient p_Q; a cut row for W demands one unit of mass on columns with
s outside W and Q touching W. Rows are generated lazily: starting from the
singleton rows, a max-flow separation oracle finds violated cuts until the
fractional solution routes one unit of flow from every terminal to the root.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
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

    The tableau is the first rows of a zeroed buffer with room for more rows
    and their surplus columns, so it stays contiguous; the columns past the
    last surplus stay 0 and never enter. A full buffer is copied into one
    of twice the room, so each row is copied O(1) times.
    """

    def __init__(self, objective: list[float], block: Sequence[Sequence[int]] = ()):
        """Start from the rows sum_{j in support} x_j >= 1 of `block`, their
        surpluses basic: the tableau `add_row` would build from them one by
        one, in a buffer of the room its doubling would reach. Against
        surplus-basic rows the row reduction subtracts only zeros, so no row
        needs it."""
        self.objective = objective
        n = self.n = len(objective)
        m = len(block)
        room = (1 << m.bit_length()) - 1  # constraint rows
        self.buffer = np.zeros((1 + room, 1 + n + room))
        t = self.tableau = self.buffer[:1 + m]
        t[0, 1:1 + n] = objective
        scale = max(objective, default=0.0)
        if scale > 0.0:
            t[0, 1:1 + n] /= scale
        for i, support in enumerate(block, 1):
            t[i, 1:][support] = -1.0
        diagonal = np.arange(1, 1 + m)
        t[diagonal, 0] = -1.0
        t[diagonal, n + diagonal] = 1.0
        self.basis = n + diagonal  # tableau column basic in row 1 + i

    def add_row(self, support: list[int]) -> None:
        """Append the row sum_{j in support} x_j >= 1 with its surplus basic."""
        m = 1 + len(self.basis)
        width = self.n + m  # the new row's surplus column
        if m == self.buffer.shape[0]:
            room = 2 * m - 1  # constraint rows
            buffer = np.zeros((1 + room, 1 + self.n + room))
            buffer[:m, :width] = self.tableau[:, :width]
            self.buffer = buffer
        t = self.tableau = self.buffer[:m + 1]
        row = t[m]
        row[0] = -1.0
        row[1:][support] = -1.0
        row[width] = 1.0
        # zero the entries under basic columns; the product spans only the
        # columns in use, because over the whole buffer width BLAS may sum
        # in another order and change the last bits of x
        row[:width + 1] -= row[self.basis] @ t[1:m, :width + 1]
        self.basis = np.append(self.basis, width)

    def solve(self) -> tuple[dict[int, float], float]:
        """Pivot until every row is feasible; return the basic x and its value.

        Bland's rule for the dual: the infeasible row with the smallest basic
        index leaves, and the minimum-ratio column enters, ties going to the
        smallest index. Deterministic and cycle-free.
        """
        t, basis = self.tableau, self.basis
        while True:
            rows = (t[1:, 0] < -_PIVOT_EPS).nonzero()[0]
            if rows.size == 0:
                break
            r = 1 + rows[basis[rows].argmin()]
            cols = 1 + (t[r, 1:] < -_PIVOT_EPS).nonzero()[0]
            if cols.size == 0:
                raise LpError("infeasible: no fractional solution covers every cut row")
            enter = cols[(t[0, cols] / -t[r, cols]).argmin()]
            t[r] /= t[r, enter]
            col = t[:, enter].copy()
            col[r] = 0.0
            t -= col[:, None] * t[r]
            basis[r - 1] = enter
        # keep even tiny masses: truncation here would leak into the
        # separation oracle as spurious row violations
        rhs = t[1:, 0]
        rows = ((basis <= self.n) & (rhs > 0.0)).nonzero()[0]
        x = dict(zip((basis[rows] - 1).tolist(), rhs[rows].tolist()))
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
    return _DualSimplex(objective, row_supports).solve()


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
    terms = columns.terms
    index = {t: a for a, t in enumerate(terms)}
    live = [j for j in sorted(x) if x[j] > 0.0]
    net = _FlowNet(len(terms) + len(live))
    inf = sum(x.values()) + 1.0
    owner, sinks = columns.layout.owner, columns.layout.sinks
    for gadget, j in enumerate(live, len(terms)):
        sink = sinks[j]
        net.add(gadget, sink, x[j])
        # add the arcs in the order Q's frozenset of node ids iterates: it
        # fixes the order in which the augmenting-path search tries them
        for q in columns.terminal_set(owner[j]):
            a = index[q]
            if a != sink:
                net.add(a, gadget, inf)
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

    Starts from the singleton rows {t}, the column layout's, as one block,
    alternates LP solves with the separation oracle, and stops when no violated cut remains, so the
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
    # int true division rounds correctly, so each price is float(p_Q)
    scale = columns.scale
    set_prices = [power / scale for power in columns.powers]
    layout = columns.layout
    singletons = [support for a, support in enumerate(layout.singletons) if terms[a] != instance.root]
    lp = _DualSimplex([set_prices[i] for i in layout.owner], singletons)
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
