"""Seeded instance generators.

Every generator is a pure function of its parameters and seed, so equal
calls reproduce identical objects and shards can derive their own seeds
independently.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import ceil, log

from .errors import InfeasibleDegree, OrderTooLarge
from .graphs import EdgeColoredGraph, _from_colour_rows, _vertex_bits, build_graph
from .latin import LatinSquare


@dataclass(frozen=True)
class SimpleGraph:
    """Uncoloured simple graph: edge pairs normalised to u < v, sorted.

    ``_rows``, the edge index that every colouring of the graph builds
    from, is computed on first use and cached on the instance (outside the
    fields, so ``==``, ``hash`` and ``repr`` ignore it).  It exists only
    when ``n`` is a non-negative ``int`` and ``edges`` is a tuple of
    ``(u, v)`` tuples of ``int`` with ``0 <= u < v < n`` in strictly
    increasing order.  Those are immutable, and the fields of a frozen
    dataclass are not reassigned, so the rows cannot go stale.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_pairs(n: int, pairs) -> "SimpleGraph":
        return SimpleGraph(n, tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs})))

    @cached_property
    def _rows(self) -> tuple[tuple[int, int, int, int], ...] | None:
        """``(u, v, 1 << u, 1 << v)`` per edge, or None unless the graph is
        in the canonical form above."""
        n, edges = self.n, self.edges
        if type(n) is not int or n < 0 or type(edges) is not tuple:
            return None
        vertex_bit = _vertex_bits(n, len(edges))
        rows = []
        prev_u = prev_v = 0
        for pair in edges:
            if type(pair) is not tuple or len(pair) != 2:
                return None
            u, v = pair
            if not (type(u) is type(v) is int and v < n
                    and (prev_v < v if u == prev_u else prev_u < u < v)):
                return None
            rows.append((u, v, vertex_bit[u], vertex_bit[v]))
            prev_u, prev_v = u, v
        return tuple(rows)


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
    from the bits in one pass with no check (:func:`graphs._from_colour_rows`),
    over the base graph's cached edge index (``SimpleGraph._rows``): the
    canonical-pair test and the vertex bits are paid once per base graph,
    not once per colouring.  A graph with no index (pairs that are not
    ``int`` tuples ``u < v < n`` in strictly increasing order in a tuple,
    or an ``n`` that is not a non-negative ``int``) keeps its masks in a
    ``defaultdict`` and hands the coloured edges to the validating
    constructor, which normalises them or raises.
    """
    rng = random.Random(seed)
    edges = graph.edges
    order = list(range(len(edges)))
    _shuffle(rng, order)
    rows = graph._rows
    at_vertex = defaultdict(int) if rows is None else [0] * graph.n
    bits = [0] * len(edges)
    for idx in order:
        u, v = edges[idx]
        used = at_vertex[u] | at_vertex[v]
        bit = ~used & (used + 1)
        bits[idx] = bit
        at_vertex[u] |= bit
        at_vertex[v] |= bit
    if rows is None:
        return EdgeColoredGraph(graph.n, [(u, v, bit.bit_length())
                                          for (u, v), bit in zip(edges, bits)])
    return _from_colour_rows(graph.n, rows, bits)


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
    seeded generator on each arrival at the cell.  The backtracking is
    iterative, one iterator of untried symbols per filled cell, with no
    recursion.  Orders above 9 raise :class:`OrderTooLarge`.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > 9:
        raise OrderTooLarge(f"order {n} exceeds backtracking cap 9")
    rng = random.Random(seed)
    grid = [[0] * n for _ in range(n)]
    row_used = [set() for _ in range(n)]
    col_used = [set() for _ in range(n)]
    untried = []
    pos = 0
    while pos < n * n:
        r, c = divmod(pos, n)
        if len(untried) == pos:
            options = [s for s in range(1, n + 1)
                       if s not in row_used[r] and s not in col_used[c]]
            _shuffle(rng, options)
            untried.append(iter(options))
        else:
            # Back from a dead end: free this cell's symbol.
            row_used[r].discard(grid[r][c])
            col_used[c].discard(grid[r][c])
        s = next(untried[-1], 0)
        if s:
            grid[r][c] = s
            row_used[r].add(s)
            col_used[c].add(s)
            pos += 1
        else:
            untried.pop()
            pos -= 1
    return LatinSquare(grid)
