"""Seeded instance generators.

Every generator is a pure function of its parameters and seed, so equal
calls reproduce identical objects and shards can derive their own seeds
independently.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from math import ceil, log

from .errors import InfeasibleDegree, OrderTooLarge
from .graphs import EdgeColoredGraph, _from_colour_bits, build_graph
from .latin import LatinSquare


@dataclass(frozen=True)
class SimpleGraph:
    """Uncoloured simple graph: edge pairs normalised to u < v, sorted."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_pairs(n: int, pairs) -> "SimpleGraph":
        return SimpleGraph(n, tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs})))


def _sample(rng: random.Random, population, k: int) -> list:
    """``Random.sample(population, k)``, drawn from ``rng.getrandbits`` alone.

    Consumes the generator exactly as CPython's ``Random.sample`` does on
    3.10-3.13 (both of its methods, chosen by the same size rule, each
    draw below m taking ``m.bit_length()`` bits until one is below m), so
    every seed gives the stdlib's sample, without the stdlib's Python-level
    ``_randbelow`` call per draw.  k outside 0..len(population) raises
    ``ValueError``.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    result = [None] * k
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        # Shrinking pool: the unpicked items sit in pool[:m].
        pool = list(population)
        for i in range(k):
            m = n - i
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[m - 1]
    else:
        # Rejection set: redraw an index already taken.
        bits = n.bit_length()
        selected: set[int] = set()
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result[i] = population[j]
    return result


def _shuffle(rng: random.Random, x: list) -> None:
    """``Random.shuffle(x)`` in place, drawn from ``rng.getrandbits`` alone,
    with the same draws and swaps as CPython's ``Random.shuffle`` on
    3.10-3.13."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def random_graph_min_degree(n: int, delta: int, seed: int,
                            extra_edge_prob: float = 0.0) -> SimpleGraph:
    """Random simple graph on n vertices with minimum degree >= delta.

    Each vertex proposes ``delta`` distinct neighbours, so every degree
    reaches ``delta``.  Each remaining pair is then added independently
    with probability ``extra_edge_prob``, which must lie in [0, 1]
    (``ValueError`` otherwise, NaN included).  ``delta >= n`` raises
    :class:`InfeasibleDegree`; n == delta + 1 forces the complete graph.
    """
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError(
            f"extra edge probability must lie in [0, 1], got {extra_edge_prob}")
    if delta < 0:
        raise ValueError("minimum degree must be non-negative")
    if delta >= n:
        raise InfeasibleDegree(f"minimum degree {delta} impossible on {n} vertices")
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    others = list(range(n))
    for v in range(n):
        at_v = adj[v]
        for w in _sample(rng, others[:v] + others[v + 1:], delta):
            at_v.add(w)
            adj[w].add(v)
    if extra_edge_prob > 0.0:
        for u in range(n):
            for v in range(u + 1, n):
                if v not in adj[u] and rng.random() < extra_edge_prob:
                    adj[u].add(v)
                    adj[v].add(u)
    return SimpleGraph(n, tuple([(u, v) for u in range(n)
                                 for v in sorted(adj[u]) if v > u]))


def greedy_proper_coloring(graph: SimpleGraph, seed: int) -> EdgeColoredGraph:
    """Proper edge colouring: seeded random edge order, least free colour.

    Each edge sees at most 2*(max degree - 1) occupied colours, so the
    palette never exceeds 2*max_degree - 1.  Colour c is bit c - 1 of a
    per-vertex mask, and the least free colour is the lowest clear bit of
    the union of the two endpoints' masks.  That bit is the colour's rank
    bit, and the colouring is proper by construction, so the graph is built
    from the bits in one pass with no second properness test
    (:func:`graphs._from_colour_bits`).  That pass checks the vertices:
    unless the pairs are ``int`` pairs ``u < v < n`` in strictly increasing
    order, the coloured edges go to the validating constructor, which
    normalises them or raises.
    """
    rng = random.Random(seed)
    edges = graph.edges
    order = list(range(len(edges)))
    _shuffle(rng, order)
    at_vertex: defaultdict[int, int] = defaultdict(int)
    bits = [0] * len(edges)
    for idx in order:
        u, v = edges[idx]
        used = at_vertex[u] | at_vertex[v]
        bit = ~used & (used + 1)
        bits[idx] = bit
        at_vertex[u] |= bit
        at_vertex[v] |= bit
    return _from_colour_bits(graph.n, edges, bits)


def one_factorization(k: int) -> EdgeColoredGraph:
    """K_{2k} coloured by a round-robin one-factorisation.

    2k - 1 colours, each class a perfect matching; minimum degree 2k - 1.
    """
    if k < 1:
        raise ValueError("k must be positive")
    m = 2 * k - 1
    edges = []
    for rnd in range(m):
        color = rnd + 1
        edges.append((m, rnd, color))
        for i in range(1, k):
            edges.append(((rnd + i) % m, (rnd - i) % m, color))
    return build_graph(2 * k, edges)


def random_latin(n: int, seed: int) -> LatinSquare:
    """Uniform-ish random Latin square by randomised backtracking.

    Cells fill row-major; candidate symbols are shuffled per cell with the
    seeded generator.  Orders above 9 raise :class:`OrderTooLarge`.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > 9:
        raise OrderTooLarge(f"order {n} exceeds backtracking cap 9")
    rng = random.Random(seed)
    grid = [[0] * n for _ in range(n)]
    row_used = [set() for _ in range(n)]
    col_used = [set() for _ in range(n)]

    def fill(pos: int) -> bool:
        if pos == n * n:
            return True
        r, c = divmod(pos, n)
        options = [s for s in range(1, n + 1)
                   if s not in row_used[r] and s not in col_used[c]]
        _shuffle(rng, options)
        for s in options:
            grid[r][c] = s
            row_used[r].add(s)
            col_used[c].add(s)
            if fill(pos + 1):
                return True
            col_used[c].discard(s)
            row_used[r].discard(s)
            grid[r][c] = 0
        return False

    fill(0)
    return LatinSquare(grid)
