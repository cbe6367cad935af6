"""Seeded instance generators.

All generators are deterministic for a fixed seed (stdlib Mersenne Twister,
whose stream is stable across platforms) and produce valid instances:
terminals connected, no parallel edges, exact rational costs.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from .instance import MAX_COST_DIGITS, MAX_EDGES, MAX_NODES, Instance, InstanceError, check_printable, reduce_cost_to_power

GENERATOR_KINDS = ("uniform-random", "euclidean-powerlaw", "two-level", "reduction-wrapped")


def _random_connected_edges(rng: random.Random, n: int, edge_prob: float) -> list[tuple[int, int]]:
    # random recursive tree guarantees connectivity, then extra edges
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    present = {tuple(sorted(p)) for p in pairs}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < edge_prob:
                pairs.append((u, v))
                present.add((u, v))
    return pairs


def _pick_terminals(rng: random.Random, n: int, count: int) -> tuple[frozenset[int], int]:
    if count > n:
        raise InstanceError(f"terminal count {count} > node count {n}")
    if count < 1:
        raise InstanceError("terminal count must be >= 1")
    chosen = sorted(rng.sample(range(n), count))
    return frozenset(chosen), chosen[0]


def generate(
    kind: str,
    nodes: int,
    terminals: int,
    seed: int,
    *,
    edge_prob: float = 0.3,
    cost_max: int = 10,
    exponent: int = 2,
    low: Fraction | int = 0,
    high: Fraction | int = 1,
    grid: int = 50,
) -> Instance:
    """Generate a seeded instance of the requested kind.

    Kinds:
      uniform-random      sparse connected graph, integer costs in [1, cost_max]
      euclidean-powerlaw  complete graph on random grid points, cost = dist^exponent
                          (exact for even exponents; rounded to 6 decimals otherwise)
      two-level           sparse connected graph, costs drawn from {low, high}
      reduction-wrapped   uniform-random instance passed through the 3-path
                          min-cost -> min-power reduction

    An `edge_prob` outside [0, 1] (NaN included) for a kind that reads it,
    parameters that would need more than `MAX_EDGES` node pairs, costs past
    float range or `MAX_COST_DIGITS` digits, or an empty cost or point range
    raise InstanceError before any work; so does a reduction past `MAX_NODES`
    nodes or `MAX_EDGES` edges, and a result whose powers could not print
    (`check_printable`).
    """
    if kind not in GENERATOR_KINDS:
        raise InstanceError(f"unknown generator kind {kind!r}")
    if kind != "euclidean-powerlaw" and not 0 <= edge_prob <= 1:
        raise InstanceError(f"edge_prob must be in [0, 1], got {edge_prob}")
    if nodes * (nodes - 1) // 2 > MAX_EDGES:
        raise InstanceError(f"{nodes} nodes have more than {MAX_EDGES} node pairs")
    rng = random.Random(seed)

    if kind == "reduction-wrapped":
        base = generate("uniform-random", nodes, terminals, seed,
                        edge_prob=edge_prob, cost_max=cost_max)
        m = len(base.edges)
        if nodes + 2 * m > MAX_NODES or 3 * m > MAX_EDGES:
            raise InstanceError(f"reducing {m} edges on {nodes} nodes passes the file limits "
                                f"of {MAX_NODES} nodes and {MAX_EDGES} edges")
        instance = reduce_cost_to_power(base)
        check_printable(instance.edges)
        return instance

    if kind == "uniform-random" and cost_max < 1:
        raise InstanceError(f"cost_max must be >= 1, got {cost_max}")
    if kind == "euclidean-powerlaw":
        if grid < 1 or grid * grid < nodes:
            raise InstanceError(f"a {grid}x{grid} grid has fewer than {nodes} points")
        reach = math.log10(max(2 * (grid - 1) ** 2, 1))  # log10 of the largest squared distance
        if reach and abs(exponent) >= 2 * MAX_COST_DIGITS / reach:
            raise InstanceError(f"exponent {exponent} gives costs of more than {MAX_COST_DIGITS} digits")
        if reach and exponent % 2 and exponent > 2 * math.log10(sys.float_info.max) / reach:
            raise InstanceError(f"exponent {exponent} gives distance powers past float range")

    term_set, root = _pick_terminals(rng, nodes, terminals)

    if kind == "uniform-random":
        pairs = _random_connected_edges(rng, nodes, edge_prob)
        edges = tuple((u, v, Fraction(rng.randint(1, cost_max))) for u, v in pairs)
    elif kind == "two-level":
        a, b = Fraction(low), Fraction(high)
        if a >= b:
            raise InstanceError(f"two-level requires a < b, got a={a} b={b}")
        pairs = _random_connected_edges(rng, nodes, edge_prob)
        edges = tuple((u, v, rng.choice((a, b))) for u, v in pairs)
    else:  # euclidean-powerlaw: distinct grid points, complete graph
        cells = rng.sample(range(grid * grid), nodes)
        points = [(c % grid, c // grid) for c in cells]
        edges_list: list[tuple[int, int, Fraction]] = []
        for u in range(nodes):
            for v in range(u + 1, nodes):
                dx = points[u][0] - points[v][0]
                dy = points[u][1] - points[v][1]
                sq = dx * dx + dy * dy
                if exponent % 2 == 0:
                    cost = Fraction(sq) ** (exponent // 2)
                else:
                    cost = Fraction(round(float(sq) ** (exponent / 2), 6)).limit_denominator(10**6)
                edges_list.append((u, v, cost))
        edges = tuple(edges_list)
    check_printable(edges)
    return Instance(nodes, edges, term_set, root)
