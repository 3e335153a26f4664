"""Latin squares and their complete-bipartite colour encodings.

A Latin square of order n maps to K_{n,n} with rows as vertices 0..n-1,
columns as vertices n..2n-1, and the edge (i, n + j) coloured by the cell
symbol.  The colouring is proper, and transversals of the square are
exactly the rainbow perfect matchings of the encoding.
"""

from __future__ import annotations

from .errors import (
    NotCompleteBipartite,
    OrderTooLarge,
    ParseError,
    WrongColourCount,
)
from .graphs import EdgeColoredGraph, build_graph

TRANSVERSAL_ORDER_CAP = 11


class LatinSquare:
    """Order-n square over symbols 1..n, each row and column a permutation.

    Errors number rows and columns from 1.
    """

    __slots__ = ("n", "cells")

    def __init__(self, cells) -> None:
        rows = tuple(tuple(row) for row in cells)
        n = len(rows)
        if n == 0:
            raise ValueError("square must have at least one row")
        full = set(range(1, n + 1))
        for i, row in enumerate(rows, start=1):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} cells, expected {n}")
            # ``type(x) is int``, not isinstance: bool is a subclass of int.
            bad = [x for x in row if type(x) is not int]
            if bad:
                raise ValueError(f"cell must be an integer, got {bad[0]!r}")
            if set(row) != full:
                raise ValueError(f"row {i} is not a permutation of 1..{n}")
        for j in range(n):
            if {row[j] for row in rows} != full:
                raise ValueError(f"column {j + 1} is not a permutation of 1..{n}")
        self.n = n
        self.cells = rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatinSquare):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"LatinSquare(order={self.n})"


def cyclic_square(n: int) -> LatinSquare:
    """Addition table of the integers mod n: cell (i, j) = ((i+j) mod n) + 1."""
    if n < 1:
        raise ValueError("order must be positive")
    return LatinSquare([[(i + j) % n + 1 for j in range(n)] for i in range(n)])


def latin_to_graph(square: LatinSquare) -> EdgeColoredGraph:
    """K_{n,n} encoding with rows 0..n-1 and columns n..2n-1."""
    n = square.n
    return build_graph(
        2 * n,
        [(i, n + j, square.cells[i][j]) for i in range(n) for j in range(n)],
    )


def graph_to_latin(graph: EdgeColoredGraph) -> LatinSquare:
    """Decode a properly coloured balanced complete bipartite graph.

    The bipartition is recovered by two-colouring; the side containing
    vertex 0 becomes the rows.  Exactly n colours are required.  Raises
    :class:`NotCompleteBipartite` or :class:`WrongColourCount`.
    """
    if graph.n == 0 or graph.n % 2:
        raise NotCompleteBipartite(f"{graph.n} vertices cannot split evenly")
    n = graph.n // 2
    side = [-1] * graph.n
    for start in range(graph.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for m in graph.options[v]:
                # The lowest bit of an entry is its other endpoint's.
                w = (m & -m).bit_length() - 1
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    raise NotCompleteBipartite(f"odd cycle through vertices {v} and {w}")
    rows = [v for v in range(graph.n) if side[v] == 0]
    cols = [v for v in range(graph.n) if side[v] == 1]
    if len(rows) != n or len(graph.edges) != n * n:
        raise NotCompleteBipartite(
            f"expected K_{{{n},{n}}} with {n * n} edges, got sides "
            f"{len(rows)}/{len(cols)} and {len(graph.edges)} edges"
        )
    if len(graph.colors) != n:
        raise WrongColourCount(f"expected {n} colours, got {len(graph.colors)}")
    # Both sides have n vertices and there are n * n edges, so every row
    # meets every column.  An entry holds the column's bit and, above the
    # graph.n vertex bits, the colour's rank bit; the symbol is the rank
    # plus one.
    col_of = {1 << v: j for j, v in enumerate(cols)}
    cells = []
    for i in rows:
        row = [0] * n
        for m in graph.options[i]:
            row[col_of[m & -m]] = (m >> graph.n).bit_length()
        cells.append(row)
    return LatinSquare(cells)


def count_transversals(square: LatinSquare) -> int:
    """Exact transversal count by meeting in the middle.

    A transversal picks one cell per row and column with all symbols
    distinct.  Cell (i, j) with symbol s is the mask
    ``1 << j | 1 << (n + s - 1)``: one column bit and one symbol bit.  The
    top ``n // 2`` rows and the remaining rows are swept separately, row
    by row, keeping the number of partial transversals per used mask;
    partials with equal masks merge.  A transversal is exactly one top
    partial joined with one bottom partial on the complementary mask, so
    the work is about the square root of a row-by-row backtracking tree.
    Orders above 11 raise :class:`OrderTooLarge`.
    """
    n = square.n
    if n > TRANSVERSAL_ORDER_CAP:
        raise OrderTooLarge(f"order {n} exceeds exact cap {TRANSVERSAL_ORDER_CAP}")
    rows = [[1 << j | 1 << (n + s - 1) for j, s in enumerate(row)]
            for row in square.cells]
    top = _partials(rows[:n // 2])
    bottom = _partials(rows[n // 2:])
    full = (1 << 2 * n) - 1
    return sum(k * bottom.get(full ^ used, 0) for used, k in top.items())


def _partials(rows) -> dict[int, int]:
    """Map each used mask to the number of partial transversals of ``rows``."""
    layer = {0: 1}
    for row in rows:
        grown: dict[int, int] = {}
        for used, k in layer.items():
            for cell in row:
                if not used & cell:
                    key = used | cell
                    grown[key] = grown.get(key, 0) + k
        layer = grown
    return layer


def parse_square(text: str) -> LatinSquare:
    """Parse the text format: a header line with n, then n whitespace-split rows.

    Blank lines and ``#`` comments are skipped.  Errors name the physical
    line, except a bad column, which spans lines and is named by its
    number from 1.
    """
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].strip())]
    if not lines:
        raise ParseError("empty square input")
    lineno, header = lines[0]
    try:
        n = int(header)
    except ValueError:
        raise ParseError(f"expected the order as the header, got {header!r}", lineno) from None
    if n < 1:
        raise ParseError(f"order must be at least 1, got {n}", lineno)
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = []
    full = set(range(1, n + 1))
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"expected {n} cells, got {len(parts)}", lineno)
        try:
            row = [int(p) for p in parts]
        except ValueError:
            raise ParseError("cells must be integers", lineno) from None
        if set(row) != full:
            raise ParseError(f"row is not a permutation of 1..{n}", lineno)
        rows.append(row)
    try:
        return LatinSquare(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def dumps_square(square: LatinSquare) -> str:
    lines = [str(square.n)]
    lines.extend(" ".join(str(x) for x in row) for row in square.cells)
    return "\n".join(lines) + "\n"


def load_square(path) -> LatinSquare:
    from pathlib import Path

    return parse_square(Path(path).read_text(encoding="utf-8"))
