"""Instance model: graphs with exact rational edge costs, power evaluation, file I/O.

Costs are `fractions.Fraction` at the API: in files, edges, `evaluate` and
`PowerTree`. The solvers only add and compare costs, so they work on
`Instance.weights`, every cost times `Instance.scale` (the lcm of the cost
denominators) as a Python int; scaling by one positive constant keeps every
sum, comparison and tie. Power of a node is the maximum cost over its
incident tree edges, and tie-breaking on equal powers is meaningful, so no
floating point enters the combinatorial layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .graph import UnionFind, connects


# largest `nodes N` an instance file may declare: an `Instance` allocates
# per-node structures up front, so a short file must not ask for more
MAX_NODES = 100_000
# most `edge` lines an instance file may hold
MAX_EDGES = 500_000
# most digits in a cost's numerator or denominator: CPython's default limit
# on int -> str conversion, so `format_cost` can print every accepted cost
MAX_COST_DIGITS = 4300
_PRINTABLE = 10**MAX_COST_DIGITS


class InstanceError(ValueError):
    """Raised for malformed instance files or invalid instance data."""


def _digit_bound(text: str) -> int:
    """The most digits the numerator or the denominator of `Fraction(text)`
    can have, read off the text before any number is built."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.replace("_", "")
    if len(exponent.lstrip("+-0")) > 9:
        return MAX_COST_DIGITS + 1  # |exponent| of 10^9 or more
    try:
        shift = int(exponent) if exponent else 0
    except ValueError:
        return 0  # malformed: Fraction rejects it
    written = sum(ch.isdecimal() for ch in mantissa)
    shift -= sum(ch.isdecimal() for ch in mantissa.partition(".")[2])
    # the value is (the written digits) * 10^shift
    return written + shift if shift >= 0 else max(written, 1 - shift)


def parse_cost(token: str) -> Fraction:
    """Parse a cost token exactly: decimal ("2.50" -> 5/2) or rational ("5/2").

    A token that would build a numerator or denominator of more than
    `MAX_COST_DIGITS` digits is rejected before any number is built.
    """
    if any(_digit_bound(part) > MAX_COST_DIGITS for part in token.split("/", 1)):
        raise InstanceError(f"cost {token[:40]!r} has more than {MAX_COST_DIGITS} digits")
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"malformed cost {token!r}") from exc
    if value < 0:
        raise InstanceError(f"negative cost {token!r}")
    return value


def format_cost(value: Fraction) -> str:
    """Render a cost exactly: terminating decimal when possible, else "p/q".

    A decimal that would need more than `MAX_COST_DIGITS` digits falls back to
    "p/q", so the output of any value `parse_cost` accepts parses back.
    """
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    d, twos, fives = den, 0, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    digits = max(twos, fives)
    if d != 1 or digits >= MAX_COST_DIGITS:
        return f"{num}/{den}"
    scaled = num * 10**digits // den
    if scaled >= _PRINTABLE:
        return f"{num}/{den}"
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


@dataclass(frozen=True)
class Instance:
    """Undirected graph with rational edge costs, a terminal set and a root terminal.

    Node ids are dense integers 0..node_count-1. Edges are identified by their
    index in `edges`. `scale` is the lcm of the cost denominators and
    `weights[eid]` the int cost of edge eid times `scale`. Immutable after
    construction; safe to share across threads.
    """

    node_count: int
    edges: tuple[tuple[int, int, Fraction], ...]
    terminals: frozenset[int]
    root: int
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.node_count <= 0:
            raise InstanceError("node count must be positive")
        seen: set[tuple[int, int]] = set()
        for u, v, cost in self.edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise InstanceError(f"edge ({u},{v}) endpoint out of range")
            if u == v:
                raise InstanceError(f"self-loop at node {u}")
            if cost < 0:
                raise InstanceError(f"negative cost on edge ({u},{v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InstanceError(f"duplicate edge {key}")
            seen.add(key)
        if not self.terminals:
            raise InstanceError("terminal set is empty")
        for t in self.terminals:
            if not (0 <= t < self.node_count):
                raise InstanceError(f"terminal id {t} out of range")
        if self.root not in self.terminals:
            raise InstanceError(f"root {self.root} is not a terminal")
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for idx, (u, v, _) in enumerate(self.edges):
            adj[u].append(idx)
            adj[v].append(idx)
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))
        self._scale_costs()
        if not connects(self.node_count, self.edges, self.terminals):
            raise InstanceError("terminals are disconnected")

    def _scale_costs(self) -> None:
        """Set `scale` and `weights` from the edge costs."""
        scale = lcm(*(c.denominator for _, _, c in self.edges))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "weights", tuple(c.numerator * (scale // c.denominator) for _, _, c in self.edges))

    def other_end(self, eid: int, node: int) -> int:
        u, v, _ = self.edges[eid]
        return v if u == node else u

    def cost(self, eid: int) -> Fraction:
        return self.edges[eid][2]

    def scaled_edges(self, edge_ids: Iterable[int]) -> list[tuple[int, int, int]]:
        """The (u, v, weight) triples of `edge_ids`, for `edge_set_power`."""
        edges, weights = self.edges, self.weights
        return [(edges[e][0], edges[e][1], weights[e]) for e in edge_ids]

    def with_costs(self, costs: Sequence[Fraction]) -> "Instance":
        """Copy of this instance with the same structure and new edge costs.

        Costs cannot change what the constructor checked of the structure,
        so only the costs are checked; `adjacency` is shared."""
        if len(costs) != len(self.edges):
            raise InstanceError("cost vector length mismatch")
        new_edges = tuple((u, v, Fraction(c)) for (u, v, _), c in zip(self.edges, costs))
        for u, v, cost in new_edges:
            if cost < 0:
                raise InstanceError(f"negative cost on edge ({u},{v})")
        copy = object.__new__(Instance)
        for name in ("node_count", "terminals", "root", "adjacency"):
            object.__setattr__(copy, name, getattr(self, name))
        object.__setattr__(copy, "edges", new_edges)
        copy._scale_costs()
        return copy


@dataclass(frozen=True, slots=True, eq=False)
class PowerTree:
    """A tree solution of `instance`, kept as its edge ids.

    Total power, total cost and node powers are derived from the instance on
    each access: the totals are int sums of `instance.weights` over
    `instance.scale`, so they equal the Fraction sums of the costs. Equality
    and hashing compare the edges, power and cost, not the instance.
    """

    edges: tuple[int, ...]
    instance: Instance = field(repr=False)

    @property
    def total_power(self) -> Fraction:
        """Sum over the tree's nodes of each node's largest incident cost."""
        inst = self.instance
        return Fraction(edge_set_power(inst.scaled_edges(self.edges)), inst.scale)

    @property
    def total_cost(self) -> Fraction:
        """Sum of the tree's edge costs."""
        weights = self.instance.weights
        return Fraction(sum(weights[e] for e in self.edges), self.instance.scale)

    def _key(self) -> tuple:
        return self.edges, self.total_power, self.total_cost

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerTree):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def node_powers(self) -> dict[int, Fraction]:
        """Each tree node's largest incident edge cost; a single terminal with
        no edges has power 0. Derived from the instance on each access."""
        if not self.edges:
            return dict.fromkeys(self.instance.terminals, Fraction(0))
        return node_maxima(self.instance.edges[e] for e in self.edges)

    def to_record(self, solver: str | None = None, seed: int | None = None) -> dict:
        """JSON-compatible record; costs rendered exactly as strings."""
        rec = {
            "edges": list(self.edges),
            "node_powers": {str(v): format_cost(p) for v, p in sorted(self.node_powers.items())},
            "total_power": format_cost(self.total_power),
            "total_cost": format_cost(self.total_cost),
            "solver": solver,
            "seed": seed,
        }
        return rec


def node_maxima(edges: Iterable[tuple[int, int, Fraction | int]]) -> dict[int, Fraction | int]:
    """Each node touched by the (u, v, cost) triples mapped to its largest incident cost."""
    node_max: dict[int, Fraction | int] = {}
    for u, v, c in edges:
        for node in (u, v):
            cur = node_max.get(node)
            if cur is None or c > cur:
                node_max[node] = c
    return node_max


def edge_set_power(edges: Iterable[tuple[int, int, Fraction | int]]) -> Fraction | int:
    """Power of an arbitrary edge set: sum over touched nodes of max incident cost.

    The edges are (u, v, cost) triples of any exact cost type: Fractions at
    the API, scaled ints (`Instance.weights`) in the solvers. The power has
    the costs' type, or is the int 0 for no edges.
    """
    return sum(node_maxima(edges).values())


def evaluate(instance: Instance, edge_ids: Sequence[int]) -> PowerTree:
    """Evaluate an acyclic edge set spanning all terminals as a PowerTree.

    Raises InstanceError on a cyclic edge set or when some terminal is not
    connected to the others by the selected edges.
    """
    ids = list(edge_ids)
    if len(set(ids)) != len(ids):
        raise InstanceError("cyclic edge set (duplicate edge id)")
    uf = UnionFind(instance.node_count)
    for eid in ids:
        if not (0 <= eid < len(instance.edges)):
            raise InstanceError(f"edge id {eid} out of range")
        u, v, _ = instance.edges[eid]
        if not uf.union(u, v):
            raise InstanceError("cyclic edge set")
    if not uf.joins(instance.terminals):
        raise InstanceError("edge set does not span all terminals")
    return PowerTree(tuple(sorted(ids)), instance)


def check_printable(edges: Iterable[tuple[int, int, Fraction]]) -> None:
    """Raise InstanceError unless every power and cost of every edge subset
    prints with at most `MAX_COST_DIGITS` digits.

    With L the lcm of the cost denominators, each such value is a fraction
    whose denominator divides L and whose numerator is at most 2·L·Σc (a
    power counts each edge at most at its two ends). Both bounds only grow
    edge by edge, so the check stops at the first edge that reaches one.
    """
    common, scaled = 1, 0  # scaled = common * (sum of the costs so far)
    for _, _, cost in edges:
        grown = lcm(common, cost.denominator)
        scaled = scaled * (grown // common) + cost.numerator * (grown // cost.denominator)
        common = grown
        if common >= _PRINTABLE:
            raise InstanceError(f"the costs' common denominator has more than {MAX_COST_DIGITS} digits")
        if 2 * scaled >= _PRINTABLE:
            raise InstanceError(f"twice the total cost over the common denominator has more than "
                                f"{MAX_COST_DIGITS} digits")


def parse_instance(text: str) -> Instance:
    """Parse the instance file format (one directive per line, '#' comments)."""
    node_count: int | None = None
    edges: list[tuple[int, int, Fraction]] = []
    terminals: set[int] | None = None
    root: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "nodes" and len(parts) == 2:
                node_count = int(parts[1])
                if node_count > MAX_NODES:
                    raise InstanceError(f"line {lineno}: {node_count} nodes exceed the limit of {MAX_NODES}")
            elif parts[0] == "edge" and len(parts) == 4:
                if len(edges) == MAX_EDGES:
                    raise InstanceError(f"line {lineno}: more than {MAX_EDGES} edges")
                edges.append((int(parts[1]), int(parts[2]), parse_cost(parts[3])))
            elif parts[0] == "terminals" and len(parts) >= 2:
                terminals = {int(p) for p in parts[1:]}
            elif parts[0] == "root" and len(parts) == 2:
                root = int(parts[1])
            else:
                raise InstanceError(f"malformed line {lineno}: {raw.strip()!r}")
        except InstanceError:
            raise
        except ValueError as exc:
            raise InstanceError(f"malformed line {lineno}: {raw.strip()!r}") from exc
    if node_count is None:
        raise InstanceError("missing 'nodes' directive")
    if terminals is None:
        raise InstanceError("missing 'terminals' directive")
    if root is None:
        raise InstanceError("missing 'root' directive")
    check_printable(edges)
    return Instance(node_count, tuple(edges), frozenset(terminals), root)


def serialize(instance: Instance) -> str:
    lines = [f"nodes {instance.node_count}"]
    for u, v, c in instance.edges:
        lines.append(f"edge {u} {v} {format_cost(c)}")
    lines.append("terminals " + " ".join(str(t) for t in sorted(instance.terminals)))
    lines.append(f"root {instance.root}")
    return "\n".join(lines) + "\n"


def reduce_cost_to_power(instance: Instance) -> Instance:
    """Min-cost to min-power reduction: each edge becomes a 3-edge path.

    Edge (u,v,c) turns into u-x (cost 0), x-y (cost c/2), y-v (cost 0) with
    fresh nodes x,y; terminals and root are unchanged. The min-power optimum
    of the output equals the min-cost Steiner optimum of the input.
    """
    n = instance.node_count
    new_edges: list[tuple[int, int, Fraction]] = []
    for idx, (u, v, c) in enumerate(instance.edges):
        x = n + 2 * idx
        y = n + 2 * idx + 1
        new_edges.append((u, x, Fraction(0)))
        new_edges.append((x, y, c / 2))
        new_edges.append((y, v, Fraction(0)))
    return Instance(n + 2 * len(instance.edges), tuple(new_edges), instance.terminals, instance.root)
