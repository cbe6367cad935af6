"""Standalone costed trees: the working representation for decompositions.

A CostedTree carries its own edges and terminal set, detached from any
Instance, because decompositions introduce fresh nodes (dummy leaves) that
do not exist in the host graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import incidence, strip_leaves, tree_fault
from .instance import Instance, edge_set_power


class TreeError(ValueError):
    """Raised on malformed trees or violated decomposition preconditions."""


@dataclass(frozen=True)
class CostedTree:
    edges: tuple[tuple[int, int, Fraction], ...]
    terminals: frozenset[int]
    adjacency: dict = field(init=False, repr=False, compare=False)  # node -> incident edge ids

    def __post_init__(self) -> None:
        fault = tree_fault(self.edges)
        if fault == "self-loop":
            raise TreeError(f"self-loop at {next(u for u, v, _ in self.edges if u == v)}")
        if fault is not None:
            raise TreeError(f"edge set is {fault}")
        adj = incidence(self.edges, range(len(self.edges)))
        if self.edges:
            missing = self.terminals - adj.keys()
            if missing:
                raise TreeError(f"terminals {sorted(missing)} not in tree")
        elif len(self.terminals) > 1:
            raise TreeError("empty tree cannot span multiple terminals")
        object.__setattr__(self, "adjacency", {k: tuple(v) for k, v in adj.items()})

    @property
    def nodes(self) -> list[int]:
        return sorted(self.adjacency) if self.adjacency else sorted(self.terminals)

    def degree(self, node: int) -> int:
        return len(self.adjacency.get(node, ()))

    def leaves(self) -> list[int]:
        return [v for v in self.nodes if self.degree(v) == 1]

    def power(self) -> Fraction:
        return edge_set_power(self.edges)

    def cost(self) -> Fraction:
        return sum((c for _, _, c in self.edges), Fraction(0))

    @staticmethod
    def induced(edges: Sequence[tuple[int, int, Fraction]], terminals: Iterable[int]) -> "CostedTree":
        """The tree on `edges` whose terminals are the members of `terminals` it touches."""
        nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
        return CostedTree(tuple(edges), frozenset(t for t in terminals if t in nodes))

    @staticmethod
    def from_instance(instance: Instance, edge_ids: Sequence[int]) -> "CostedTree":
        tree = CostedTree.induced([instance.edges[e] for e in edge_ids], instance.terminals)
        return tree if tree.terminals else CostedTree(tree.edges, frozenset(instance.terminals))


def validate_full_component(tree: CostedTree) -> None:
    """Check the decomposition normal form: leaves and terminals coincide."""
    leaves = set(tree.leaves())
    if leaves != set(tree.terminals):
        extra = sorted(leaves - tree.terminals)
        inner = sorted(tree.terminals - leaves)
        if extra:
            raise TreeError(f"non-terminal leaves {extra}; prune or attach dummies first")
        raise TreeError(f"internal terminals {inner}; attach dummy leaves first")


def prune_nonterminal_leaves(tree: CostedTree) -> CostedTree:
    """Repeatedly drop leaves that are not terminals."""
    kept = strip_leaves(tree.edges, range(len(tree.edges)), tree.terminals)
    return CostedTree(tuple(tree.edges[i] for i in kept), tree.terminals)


def random_full_component(
    seed: int,
    terminal_count: int | None = None,
    cost_max: int = 20,
    degree_cap: int | None = None,
) -> CostedTree:
    """Seeded random full component: internal non-terminals, terminal leaves.

    With degree_cap set, every node's degree stays within the cap (the
    skeleton fills each internal node up to the cap with terminals), which
    keeps bounded-degree splitting trivial and large terminal counts intact.
    """
    rng = random.Random(seed)
    t_count = terminal_count if terminal_count is not None else rng.randint(4, 30)
    if t_count < 2:
        raise TreeError("need at least 2 terminals")
    if degree_cap is not None:
        if degree_cap < 3:
            raise TreeError("degree_cap must be >= 3")
        return _degree_capped_component(rng, t_count, cost_max, degree_cap)
    internal_count = rng.randint(1, max(1, t_count - 1))
    edges: list[tuple[int, int, Fraction]] = []
    # random recursive tree on internal nodes 0..internal_count-1
    for i in range(1, internal_count):
        edges.append((rng.randrange(i), i, Fraction(rng.randint(1, cost_max))))
    # every internal leaf of that skeleton must receive a terminal
    incident = incidence(edges, range(len(edges)))
    next_id = internal_count
    terminals: list[int] = []
    forced = [i for i in range(internal_count) if len(incident.get(i, ())) <= 1]
    # internal_count <= t_count - 1 bounds len(forced) below t_count
    hosts = forced + [rng.randrange(internal_count) for _ in range(t_count - len(forced))]
    for host in hosts:
        edges.append((host, next_id, Fraction(rng.randint(1, cost_max))))
        terminals.append(next_id)
        next_id += 1
    tree = CostedTree(tuple(edges), frozenset(terminals))
    validate_full_component(tree)
    return tree


def _degree_capped_component(
    rng: random.Random, t_count: int, cost_max: int, cap: int
) -> CostedTree:
    # enough internals that every terminal finds a slot under the cap
    internal_count = max(1, -(-(t_count - 2) // (cap - 2)))
    degrees = {0: 0}
    edges: list[tuple[int, int, Fraction]] = []
    for i in range(1, internal_count):
        host = rng.choice([v for v, d in degrees.items() if d < cap])
        edges.append((host, i, Fraction(rng.randint(1, cost_max))))
        degrees[host] += 1
        degrees[i] = 1
    next_id = internal_count
    terminals = []
    open_leaves = [v for v, d in degrees.items() if d <= 1]
    for _ in range(t_count):
        if open_leaves:
            host = open_leaves.pop()
        else:
            host = rng.choice([v for v, d in degrees.items() if d < cap])
        edges.append((host, next_id, Fraction(rng.randint(1, cost_max))))
        degrees[host] += 1
        if degrees[host] <= 1:
            open_leaves.append(host)
        terminals.append(next_id)
        next_id += 1
    tree = CostedTree(tuple(edges), frozenset(terminals))
    validate_full_component(tree)
    return tree

