"""Shared fixtures, instance builders and independent brute-force oracles.

The oracles deliberately avoid the library's search code: they enumerate
edge subsets or permutations directly, so agreement with the package is
evidence rather than tautology.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import rainbowmatch
from rainbowmatch import (
    CellResult,
    InstanceRecord,
    Matching,
    SolveResult,
    build_graph,
    records_to_csv,
)


# ------------------------------------------------------------ option table

def packed_table(graph):
    """The option table rebuilt from ``graph.edges`` alone: per vertex, for
    each incident edge in edge-id order, ``(1 << w) | (1 << rank) << n``,
    where w is the other endpoint and rank the colour's rank."""
    rank = {c: r for r, c in enumerate(sorted({c for _u, _v, c in graph.edges}))}
    table = [[] for _ in range(graph.n)]
    for u, v, c in graph.edges:
        colour = (1 << rank[c]) << graph.n
        table[u].append((1 << v) | colour)
        table[v].append((1 << u) | colour)
    return tuple(tuple(row) for row in table)


def assert_packed_table(graph):
    """The graph's edges are sorted and its option table holds exactly
    :func:`packed_table`, each entry a plain ``int`` that the cyclic
    garbage collector does not track."""
    assert list(graph.edges) == sorted(graph.edges)
    assert graph.options == packed_table(graph)
    for row in graph.options:
        for entry in row:
            assert type(entry) is int and not gc.is_tracked(entry)


# ---------------------------------------------------------------- builders

def k4_one_factorization():
    """K4 with its unique proper 3-colouring: opposite edges share colours."""
    return build_graph(4, [(0, 1, 1), (2, 3, 1),
                           (0, 2, 2), (1, 3, 2),
                           (0, 3, 3), (1, 2, 3)])


def c4(colors=(1, 2, 3, 2)):
    """4-cycle 0-1-2-3-0 with the given colours in that edge order."""
    a, b, c, d = colors
    return build_graph(4, [(0, 1, a), (1, 2, b), (2, 3, c), (0, 3, d)])


def k33_cyclic():
    """K_{3,3} coloured by the cyclic order-3 square; rows 0..2, cols 3..5."""
    edges = [(i, 3 + j, ((i + j) % 3) + 1) for i in range(3) for j in range(3)]
    return build_graph(6, edges)


def cyclic_knn(n: int):
    """K_{n,n} coloured by the cyclic square of order n; rows 0..n-1,
    columns n..2n-1."""
    return build_graph(2 * n, [(i, n + j, (i + j) % n + 1)
                               for i in range(n) for j in range(n)])


def two_edge_path():
    return build_graph(3, [(0, 1, 1), (1, 2, 2)])


def pendant_star():
    """One edge 01 with three fresh pendants at 0 and one at 1.  Greedy
    takes (0, 1, 1); the depth-1 exchange then needs 6 core nodes to swap
    it for two edges."""
    return build_graph(6, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4),
                           (1, 5, 5)])


def random_instance(seed: int, max_n: int = 9, max_m: int = 12):
    """Small seeded properly coloured graph; palette biased low so that
    monochromatic classes of size 2+ actually occur."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    m = rng.randint(0, min(max_m, len(pairs)))
    incident: dict[int, set[int]] = defaultdict(set)
    edges = []
    for u, v in pairs[:m]:
        banned = incident[u] | incident[v]
        palette = [c for c in range(1, 2 * n + 2) if c not in banned]
        c = palette[0] if rng.random() < 0.6 else rng.choice(palette[:3])
        edges.append((u, v, c))
        incident[u].add(c)
        incident[v].add(c)
    return build_graph(n, edges)


def no_solver(graph, *args, **kwargs):
    """A solver that proves every instance has no rainbow edge at all.
    Only a wrong solver can break the guarantees, so it stands in for
    ``solve_decision`` and ``max_rainbow_matching`` to drive a campaign's
    violation lines and witness dumps."""
    return SolveResult(Matching(), 0, True, 1)


# ----------------------------------------------------------------- oracles

def brute_max_rainbow(graph) -> int:
    """Maximum rainbow matching size by scanning all 2^m edge subsets."""
    edges = list(graph.edges)
    best = 0
    for mask in range(1 << len(edges)):
        verts: set[int] = set()
        cols: set[int] = set()
        size = 0
        ok = True
        mm = mask
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            u, v, c = edges[i]
            if u in verts or v in verts or c in cols:
                ok = False
                break
            verts.add(u)
            verts.add(v)
            cols.add(c)
            size += 1
        if ok and size > best:
            best = size
    return best


def brute_count_rainbow(graph, size: int) -> int:
    """Number of rainbow matchings of exactly the given size, same scan."""
    edges = list(graph.edges)
    count = 0
    for subset in itertools.combinations(range(len(edges)), size):
        verts: set[int] = set()
        cols: set[int] = set()
        ok = True
        for i in subset:
            u, v, c = edges[i]
            if u in verts or v in verts or c in cols:
                ok = False
                break
            verts.add(u)
            verts.add(v)
            cols.add(c)
        if ok:
            count += 1
    return count


def reference_count_walk(graph, size: int) -> tuple[int, int]:
    """``(count, nodes)`` of the counter's tree, walked recursively over
    ``graph.options``: branch on the lowest free vertex, cut a node whose
    free vertices cannot hold the edges still needed, leave the vertex
    unmatched only while the others can, and count a one-edge node's last
    edges without visiting them.  For ``size >= 1`` only."""
    n = graph.n
    nodes = 0

    def visit(need, used):
        nonlocal nodes
        nodes += 1
        free = [v for v in range(n) if not used >> v & 1]
        if len(free) < 2 * need:
            return 0
        low = free[0]
        total = visit(need, used | 1 << low) if len(free) > 2 * need else 0
        used |= 1 << low
        fits = [m for m in graph.options[low] if not used & m]
        if need == 1:
            return total + len(fits)
        return total + sum(visit(need - 1, used | m) for m in fits)

    return visit(size, 0), nodes


def reference_search_walk(graph, target, node_budget=None, used=0):
    """``(witness, size, nodes, events, budget_hit)`` of the search's tree,
    walked recursively over ``graph.options``, with the witness decoded
    from the option bits into a :class:`Matching`.

    Branch on the lowest free vertex: its fitting edges in table order,
    then, if the other free vertices could still hold what is needed when
    the node was visited, leave it unmatched.  A node is cut when the size
    plus half its free vertices, or the size plus its unused colours, both
    counted by popcount at that node, falls short of what is needed: the
    target, or one more than the incumbent when ``target`` is None.  The
    walk stops before node ``node_budget + 1`` with a budget event, and a
    decide walk stops at its first witness.  ``used`` is a root mask of
    vertex bits with colour-rank bits above them."""
    n = graph.n
    everyone = (1 << n) - 1
    colours = ((1 << len(graph.colors)) - 1) << n
    ranked = sorted(graph.colors)
    limit = float("inf") if node_budget is None else node_budget
    need = 1 if target is None else target
    nodes = 0
    best = []
    events = []

    class Stop(Exception):
        """Ends the walk; its one argument is whether the budget did."""

    def visit(size, used, path):
        nonlocal need, nodes, best
        if nodes >= limit:
            events.append(("budget", size, nodes))
            raise Stop(True)
        nodes += 1
        if size > len(best):
            best = path
            events.append(("incumbent", size, nodes))
            if target is None:
                need = size + 1
            elif size >= target:
                raise Stop(False)
        free = everyone & ~used
        room = free.bit_count()
        if (size + room // 2 < need
                or size + (colours & ~used).bit_count() < need):
            return
        low = (free & -free).bit_length() - 1
        skip = size + (room - 1) // 2 >= need
        used |= 1 << low
        for m in graph.options[low]:
            if not used & m:
                w = (m & everyone).bit_length() - 1
                edge = (min(low, w), max(low, w), ranked[(m >> n).bit_length() - 1])
                visit(size + 1, used | m, path + [edge])
        if skip:
            visit(size, used, path)

    try:
        visit(0, used, [])
        budget_hit = False
    except Stop as stop:
        budget_hit = stop.args[0]
    return Matching(best), len(best), nodes, events, budget_hit


def brute_max_matching(graph) -> int:
    """Maximum matching size ignoring colours, same subset scan."""
    edges = list(graph.edges)
    best = 0
    for mask in range(1 << len(edges)):
        verts: set[int] = set()
        size = 0
        ok = True
        mm = mask
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            u, v, _ = edges[i]
            if u in verts or v in verts:
                ok = False
                break
            verts.add(u)
            verts.add(v)
            size += 1
        if ok and size > best:
            best = size
    return best


def brute_transversals(square) -> int:
    """Transversal count by full permutation enumeration."""
    n = square.n
    count = 0
    for perm in itertools.permutations(range(n)):
        symbols = {square.cells[i][perm[i]] for i in range(n)}
        if len(symbols) == n:
            count += 1
    return count


def independent_is_proper(n: int, edges) -> bool:
    """Properness re-check that does not rely on graph construction."""
    seen: dict[int, set[int]] = defaultdict(set)
    for u, v, c in edges:
        if u == v or not (0 <= u < n and 0 <= v < n) or c < 1:
            return False
        if c in seen[u] or c in seen[v]:
            return False
        seen[u].add(c)
        seen[v].add(c)
    pairs = {(min(u, v), max(u, v)) for u, v, _ in edges}
    return len(pairs) == len(list(edges))


# ------------------------------------------------------------ result files

def cells_csv(result) -> str:
    """The ``cells.csv`` that ``write_campaign_files`` writes."""
    return records_to_csv(result.cells, CellResult, config_hash=result.config_hash)


def instances_csv(result) -> str:
    """The ``instances.csv`` that ``write_campaign_files`` writes."""
    return records_to_csv(result.records, InstanceRecord)


def as_pinned_audit(payload: dict) -> dict:
    """An audit report's JSON in the form the audit pins were taken in.

    The ``order_bound`` field is dropped: it repeats the number at the end
    of the ``order-inequality`` note and came later.  The check that good
    edges are nice is put back at index 2 of the checks: it always held,
    with an empty witness, and the reports carried it then."""
    del payload["order_bound"]
    payload["checks"].insert(2, {
        "holds": True, "name": "good-nice-inclusion",
        "note": "every good edge is nice by construction", "witness": []})
    return payload


# --------------------------------------------------------- subprocesses

def fresh_interpreter(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter, started with ``flags``, that
    imports this package."""
    env = dict(os.environ)
    src = str(Path(rainbowmatch.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def small_corpus():
    """The shared 1000-instance corpus used by the oracle-equivalence and
    engine acceptance checks."""
    return [random_instance(seed) for seed in range(1000)]
