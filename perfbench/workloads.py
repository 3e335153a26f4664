"""The four benchmark workloads: seeded inputs, timed calls, output checks.

A workload is a fixed pool of items built from the workload seed.  An item
is one timed call into the package's public functions (``call``) and an
untimed check of what it returned (``check``).  The check gives an error
message or ``None``, plus the deterministic counts the call produced
(solver nodes, certificate tuples, transversal totals, CSV bytes).  A run
repeats the pool, so every count must come out the same on every pass.

The package is reached only through the ``api`` namespace built in
``worker.py``, so the traced run can wrap each entry point under the name
the benchmark calls it by.  The package receives only generated inputs:
graphs arrive as text, squares as rows, campaigns as command lines.  The
graphs and squares are made here rather than with ``rainbowmatch.generators``,
so a change to the generators cannot change the ``exact`` or ``latin``
inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# verify: each call is `rainbowmatch verify` over d = 2..6 at the proven
# order, VERIFY_SAMPLES graphs per d with 3 recolourings: 40 instances.
VERIFY_CALLS = 40
VERIFY_SAMPLES = 2
VERIFY_DELTAS = (2, 3, 4, 5, 6)
VERIFY_RECOLORINGS = 3
VERIFY_INSTANCES = len(VERIFY_DELTAS) * VERIFY_SAMPLES * (VERIFY_RECOLORINGS + 1)

# exact: optimisation solves and decision solves at proven-order graphs
# (d -> graphs), exhaustive "no" proofs on even cyclic K_{n,n}, and
# stuck-state audits of even cyclic squares.  Optimisation solves at d = 5
# and 6 vary too much with the seed (0.7 to 880 ms at d = 5) for a steady
# benchmark, so they run at d = 4.  Group sizes put the median inside the
# d = 12 group and the tail (ten items above it) inside the d = 20 group.
EXACT_MAX = {4: 16}
EXACT_DECIDE = {12: 10, 15: 6, 20: 14}
EXACT_NO = (6, 8)
EXACT_AUDIT = (10, 12, 14, 16)

# latin: random squares (order -> count) and cyclic squares.  The graph-side
# counter runs up to LATIN_GRAPH_COUNT_MAX; order 9 is counted on the
# square only.  The tail (ten items above it) falls inside the order-8 group.
LATIN_RANDOM = {7: 25, 8: 16}
LATIN_CYCLIC = (5, 7, 9)
LATIN_GRAPH_COUNT_MAX = 8
# Transversals of the cyclic square of odd order n (OEIS A006717).
CYCLIC_TRANSVERSALS = {5: 15, 7: 133, 9: 2025}

# certify: every fifth d up to the acceptance-6 ceiling of 200.  The seed
# does not change it.
CERTIFY_DELTAS = (2, *range(5, 201, 5))

WORKLOADS = ("verify", "exact", "latin", "certify")

# The speed reference that scales each workload's call times (see
# reference.py).  certify is numpy array work: over five seeds its raw
# times spread by 13 to 14 per cent, by 15 to 31 scaled by the Python
# reference and by 1 to 8 scaled by the numpy one.
REFERENCE = {"verify": "python", "exact": "python", "latin": "python",
             "certify": "numpy"}


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str | None, dict]]
    units: int = 1       # work units counted by items_per_s
    fixed: bool = False  # input does not depend on the seed


def sub_seed(seed: int, *labels) -> int:
    """Seed for one input, derived from the workload seed and a label path."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big")


def bound_n(delta: int) -> int:
    """Proven order for minimum degree delta: ceil((9 * delta - 5) / 2)."""
    return (9 * delta - 4) // 2


# ------------------------------------------------------------------ inputs

def random_graph_text(n: int, delta: int, seed: int) -> str:
    """Random graph on n vertices with minimum degree >= delta, properly
    coloured greedily in a random edge order, in the package's text format."""
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        for w in rng.sample([u for u in range(n) if u != v], delta):
            adj[v].add(w)
            adj[w].add(v)
    pairs = [(u, w) for u in range(n) for w in sorted(adj[u]) if u < w]
    rng.shuffle(pairs)
    at: list[set[int]] = [set() for _ in range(n)]
    edges = []
    for u, w in pairs:
        c = 1
        while c in at[u] or c in at[w]:
            c += 1
        at[u].add(c)
        at[w].add(c)
        edges.append((u, w, c))
    return _graph_text(n, sorted(edges))


def cyclic_rows(n: int) -> list[list[int]]:
    return [[(i + j) % n + 1 for j in range(n)] for i in range(n)]


def cyclic_bipartite_text(n: int) -> str:
    """K_{n,n} coloured by the cyclic square of order n (rows 0..n-1,
    columns n..2n-1)."""
    rows = cyclic_rows(n)
    return _graph_text(2 * n, [(i, n + j, rows[i][j])
                               for i in range(n) for j in range(n)])


def _graph_text(n: int, edges) -> str:
    return "".join([f"g {n}\n"] + [f"e {u} {v} {c}\n" for u, v, c in edges])


def random_latin_rows(n: int, seed: int) -> list[list[int]]:
    """Random Latin square of order n by seeded backtracking, row-major."""
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
        rng.shuffle(options)
        for s in options:
            grid[r][c] = s
            row_used[r].add(s)
            col_used[c].add(s)
            if fill(pos + 1):
                return True
            row_used[r].discard(s)
            col_used[c].discard(s)
        grid[r][c] = 0
        return False

    fill(0)
    return grid


# ------------------------------------------------------------------ checks

def _witness_error(api, graph, res, want: int | None) -> str | None:
    """A solver result must carry a checked witness of its stated size and
    come from an exhausted search; ``want`` is the size it must reach."""
    if not res.optimal:
        return "search did not run to exhaustion"
    if len(res.best) != res.size:
        return f"witness has {len(res.best)} edges, result says {res.size}"
    if not api.is_rainbow_matching(graph, res.best):
        return "witness is not a rainbow matching"
    if want is not None and res.size < want:
        return f"size {res.size} below {want}"
    return None


# --------------------------------------------------------------- workloads

def verify_items(api, seed: int, workdir: Path) -> list[Item]:
    items = []
    for i in range(VERIFY_CALLS):
        out = workdir / f"verify-{i}"
        argv = ["verify", "--deltas", ",".join(map(str, VERIFY_DELTAS)),
                "--samples", str(VERIFY_SAMPLES),
                "--recolorings", str(VERIFY_RECOLORINGS),
                "--seed", str(sub_seed(seed, "verify", i)), "--out", str(out)]
        items.append(Item(f"verify[{i}]", _cli_call(api, argv),
                          _verify_check(out), units=VERIFY_INSTANCES))
    return items


def _cli_call(api, argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return api.main(argv)
    return call


def _verify_check(out: Path):
    def check(rc):
        if rc != 0:
            return f"verify exited {rc}", {}
        cells_path, inst_path = out / "cells.csv", out / "instances.csv"
        with open(cells_path, newline="") as fh:
            cells = list(csv.DictReader(fh))
        with open(inst_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for c in cells:
            if c["failures"] != "0" or c["inconclusive"] != "0" \
                    or c["ok"] != c["instances"]:
                return f"cells.csv: {dict(c)}", {}
        if len(rows) != VERIFY_INSTANCES:
            return f"{len(rows)} instances, expected {VERIFY_INSTANCES}", {}
        for r in rows:
            d, n = int(r["delta"]), int(r["n"])
            if n != bound_n(d) or r["status"] != "ok" or r["theorem_ok"] != "1" \
                    or int(r["found_size"]) < d:
                return f"instances.csv: {dict(r)}", {}
        return None, {
            "instances": len(rows),
            "solver_nodes": sum(int(r["nodes"]) for r in rows),
            "engine_steps": sum(int(r["engine_steps"]) for r in rows),
            "csv_bytes": cells_path.stat().st_size + inst_path.stat().st_size,
        }
    return check


def exact_items(api, seed: int) -> list[Item]:
    items = []
    for d, count in EXACT_MAX.items():
        for i in range(count):
            text = random_graph_text(bound_n(d), d, sub_seed(seed, "max", d, i))
            items.append(Item(f"max[d={d},{i}]", _max_call(api, text),
                              _solve_check(api, d)))
    for d, count in EXACT_DECIDE.items():
        for i in range(count):
            text = random_graph_text(bound_n(d), d, sub_seed(seed, "decide", d, i))
            items.append(Item(f"decide[d={d},{i}]", _decide_call(api, text, d),
                              _solve_check(api, d)))
    for n in EXACT_NO:
        items.append(Item(f"no[K{n},{n}]",
                          _decide_call(api, cyclic_bipartite_text(n), n),
                          _no_check(api, n), fixed=True))
    for n in EXACT_AUDIT:
        items.append(Item(f"audit[{n}]",
                          _audit_call(api, cyclic_bipartite_text(n), n),
                          _audit_check(api, n), fixed=True))
    return items


def _max_call(api, text):
    def call():
        graph = api.parse_graph(text)
        return graph, api.max_rainbow_matching(graph)
    return call


def _decide_call(api, text, k):
    def call():
        graph = api.parse_graph(text)
        return graph, api.solve_decision(graph, k)
    return call


def _solve_check(api, d):
    def check(out):
        graph, res = out
        return _witness_error(api, graph, res, d), {"solver_nodes": res.nodes_explored}
    return check


def _no_check(api, n):
    # An even cyclic square has no transversal: the answer must be an
    # exhausted search that stops below n.
    def check(out):
        graph, res = out
        err = _witness_error(api, graph, res, None)
        if err is None and res.size >= n:
            err = f"found size {res.size} on an even cyclic K{n},{n}"
        return err, {"solver_nodes": res.nodes_explored}
    return check


def _audit_call(api, text, n):
    def call():
        graph = api.parse_graph(text)
        return graph, api.audit_stuck_state(graph, n)
    return call


def _audit_check(api, n):
    def check(out):
        graph, (report, eng) = out
        counts = {"engine_nodes": eng.nodes_explored, "engine_steps": len(eng.trace)}
        if eng.size >= n:
            return f"engine reached {eng.size} on an even cyclic square", counts
        if not api.is_rainbow_matching(graph, report.matching):
            return "audited matching is not rainbow", counts
        failed = [c.name for c in report.checks
                  if not c.holds and c.name not in api.NON_BINDING_CHECKS]
        if failed:
            return f"audit checks failed: {failed}", counts
        return None, counts
    return check


def latin_items(api, seed: int) -> list[Item]:
    squares = [(f"random{n}[{i}]", api.LatinSquare(
                    random_latin_rows(n, sub_seed(seed, "latin", n, i))), None)
               for n, count in LATIN_RANDOM.items() for i in range(count)]
    squares += [(f"cyclic{n}", api.LatinSquare(cyclic_rows(n)),
                 CYCLIC_TRANSVERSALS[n]) for n in LATIN_CYCLIC]
    return [Item(label, _latin_call(api, sq), _latin_check(sq, known),
                 fixed=known is not None)
            for label, sq, known in squares]


def _latin_call(api, square):
    def call():
        count = api.count_transversals(square)
        graph = api.latin_to_graph(square)
        graph_count = (api.count_rainbow_matchings(graph, square.n)
                       if square.n <= LATIN_GRAPH_COUNT_MAX else None)
        return count, graph_count, api.graph_to_latin(graph)
    return call


def _latin_check(square, known):
    def check(out):
        count, graph_count, back = out
        counts = {"transversals": count}
        if graph_count is not None and graph_count != count:
            return f"count_transversals {count} != graph count {graph_count}", counts
        if known is not None and count != known:
            return f"{count} transversals, OEIS A006717 gives {known}", counts
        if square.n % 2 == 1 and count == 0:
            return "odd-order square without a transversal", counts
        if back != square:
            return "graph_to_latin did not invert latin_to_graph", counts
        return None, counts
    return check


def certify_items(api, seed: int) -> list[Item]:
    del seed  # the certificate's inputs are fixed
    return [Item(f"certify[d={d}]", _certify_call(api, d), _certify_check,
                 fixed=True)
            for d in CERTIFY_DELTAS]


def _certify_call(api, d):
    return lambda: api.certify_counting_bound(d)


def _certify_check(res):
    counts = {"tuples": res.tuples_checked}
    if not (res.holds and res.forms_agree and res.margin > 0):
        return (f"certificate fails at d={res.delta}: holds={res.holds} "
                f"margin={res.margin}"), counts
    return None, counts


def build_items(workload: str, api, seed: int, workdir: Path) -> list[Item]:
    if workload == "verify":
        return verify_items(api, seed, workdir)
    if workload == "exact":
        return exact_items(api, seed)
    if workload == "latin":
        return latin_items(api, seed)
    if workload == "certify":
        return certify_items(api, seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_items(workload: str, items: list[Item]) -> list[Item]:
    """Cheap items run once during set-up, so that first-call costs
    (bytecode loading, file creation, argument parsing) stay out of the
    measurement."""
    if workload == "verify":
        return items[:1]
    if workload == "exact":
        return [it for it in items if it.label in ("no[K6,6]", "audit[10]")]
    if workload == "latin":
        return [it for it in items if it.label == "cyclic5"]
    return [it for it in items if it.label in ("certify[d=2]", "certify[d=10]")]

