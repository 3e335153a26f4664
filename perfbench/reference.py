"""Fixed computations that gauge the host's current speed.

On a shared host the same code runs up to 1.7 times slower for tens of
seconds at a time, with CPU time equal to wall time, so the slowdown is in
the core, not in scheduling.  A run of 20 seconds can sit entirely in a
slow phase, and raw timings then spread by 15 to 35 per cent between runs.
The benchmark therefore times a reference computation between timed calls
and scales each call's time by the reference's nominal time over the mean
of the reference times just before and just after it: the result is the
call's time on a host where the reference takes its nominal time, which is
about what it takes on a 2.0 GHz x86-64 core in a fast phase.  Package
changes do not touch the references, so scaled times move only with the
package.

Slow phases hit interpreted Python and numpy array work differently, so
there are two references.  ``python`` mimics the package's search loops: a
recursive include or exclude over coloured edges with the used vertices
and colours in sets.  ``numpy`` mimics the counting certificate: broadcast
integer arithmetic, a mask, ``where``, ``sum`` and ``argmax`` over a
400 by 600 grid.
"""

from __future__ import annotations

import random
import subprocess
import sys
from time import perf_counter


def _graph() -> list[tuple[int, int, int]]:
    rng = random.Random(12345)
    n = 14
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
    rng.shuffle(pairs)
    at: list[set[int]] = [set() for _ in range(n)]
    edges = []
    for u, v in pairs:
        c = 1
        while c in at[u] or c in at[v]:
            c += 1
        at[u].add(c)
        at[v].add(c)
        edges.append((u, v, c))
    return sorted(edges)


_EDGES = _graph()


def _python_search() -> int:
    """Rainbow matchings of size 3 in a fixed random graph."""
    edges = _EDGES
    used_v: set[int] = set()
    used_c: set[int] = set()
    count = 0

    def visit(i: int, picked: int) -> None:
        nonlocal count
        if picked == 3:
            count += 1
            return
        if i == len(edges):
            return
        u, v, c = edges[i]
        if u not in used_v and v not in used_v and c not in used_c:
            used_v.add(u)
            used_v.add(v)
            used_c.add(c)
            visit(i + 1, picked + 1)
            used_c.discard(c)
            used_v.discard(v)
            used_v.discard(u)
        visit(i + 1, picked)

    visit(0, 0)
    return count


_GRID = []


def _numpy_grid() -> tuple[int, int]:
    import numpy as np

    if not _GRID:
        _GRID.append((np.arange(400 * 600, dtype=np.int64) % 1000).reshape(400, 600))
    grid = _GRID[0]
    over = np.maximum(grid - 500, 0)
    feasible = 2 * over + grid <= 1200
    vals = np.where(feasible, 3 * grid - over, -(2 ** 62))
    return int(feasible.sum()), int(vals.argmax())


# kind -> (computation, its expected result, nominal seconds)
REFERENCES = {
    "python": (_python_search, 3160, 0.003),
    "numpy": (_numpy_grid, (176160, 733), 0.002),
}


def nominal(kind: str) -> float:
    return REFERENCES[kind][2]


def timed_reference(kind: str) -> float:
    """Seconds taken by one run of the reference computation ``kind``."""
    compute, expected, _nominal = REFERENCES[kind]
    start = perf_counter()
    result = compute()
    elapsed = perf_counter() - start
    if result != expected:
        raise RuntimeError(f"{kind} reference returned {result}, expected {expected}")
    return elapsed


# Set-up (interpreter start, imports, building inputs) is mostly loading and
# kernel work, which the host's slow phases hit differently from the
# computations above: scaled by them, set-up times spread more, not less.
# So each timed set-up is bracketed by reference process starts, a fresh
# interpreter that imports numpy and exits, and scaled by START_NOMINAL_S
# over the mean time of the starts just before and just after it.
START_ARGS = ("-c", "import numpy")
START_NOMINAL_S = 0.15


def timed_start(env: dict) -> float:
    """Seconds taken by one reference process start."""
    start = perf_counter()
    subprocess.run([sys.executable, *START_ARGS], env=env, check=True, timeout=60)
    return perf_counter() - start
