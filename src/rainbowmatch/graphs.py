"""Edge-coloured graphs, matchings, colour classes and the order bound.

Vertices are dense integer ids ``0..n-1``.  Edges are ``(u, v, colour)``
triples with ``u < v`` and positive integer colours.  Graphs are immutable
after construction; every function in this module is pure, so values can be
shared freely between concurrent workers.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .errors import DuplicateEdge, ImproperColoring, LoopEdge, UnknownEdge

Edge = tuple[int, int, int]


class EdgeColoredGraph:
    """Simple graph carrying a proper edge colouring.

    Construction validates simplicity (no loops, no repeated vertex pair)
    and properness (edges sharing a vertex have distinct colours); invalid
    input raises :class:`LoopEdge`, :class:`DuplicateEdge` or
    :class:`ImproperColoring`.  The vertex count, the endpoints and the
    colours must be ``int`` exactly (not float, not bool), or
    :class:`ValueError` names the offending value.  Input edge order never
    matters: edges are normalised to ``u < v`` and stored sorted, so equal
    graphs compare and serialise identically.  When the sorted edges hold
    several repeated pairs or colour clashes, the first one is reported; a
    clash at both endpoints names the earlier edge at the lower one.

    There are two routes to the same result.  A list or tuple already in
    canonical form (tuples of three ``int`` with ``0 <= u < v < n``, in
    strictly increasing pair order, as dumps, the generators and
    :meth:`without_vertex` give) is indexed in one loop that tests the
    form, and the finished table is tested for properness once
    (:func:`_index`).  Any other input, and canonical-looking input that
    breaks the form part-way or the colouring anywhere, is normalised and
    sorted first and then indexed by the same loop.  Canonical input is its
    own normalised, sorted form, so both routes store the same edges and
    table; every fault goes to the second route, and only there, on its
    error path, does :func:`_violation` search for the fault to name.

    The greedy colouring (:func:`generators.greedy_proper_coloring`) skips
    the constructor when its base graph has an edge index: rows
    ``(u, v, 1 << u, 1 << v)``, built and cached once per base graph and
    only for immutable canonical pairs (a tuple of ``int`` pair tuples,
    ``0 <= u < v < n``, strictly increasing).  Its colours are exactly 1..k
    and proper by construction, so each edge's colour bit is already its
    rank bit and no clash can occur; :func:`_from_colour_rows` fills the
    same four slots from the rows in one pass with no check.  Any other
    input it hands to the constructor, on every call.

    ``colors`` is the frozenset of colours used.  ``options`` is the one
    adjacency table, filled by the loop that tests the form: for each
    incident edge of a vertex, in increasing edge id, one ``int`` mask
    ``(1 << w) | (1 << rank) << n``, the other endpoint's bit with the
    colour's bit (its rank among ``sorted(colors)``) above the ``n`` vertex
    bits.  An entry is a plain ``int``, so a graph holds no object per edge
    end that the cyclic garbage collector tracks.  Degrees and every walk
    in the package read the table; a mask that holds both of an edge's
    vertex bits names that edge in the sorted ``edges``
    (:func:`_edge_of`), which is how a walk's witness is decoded.
    """

    __slots__ = ("n", "edges", "options", "colors")

    def __init__(self, n: int, edges) -> None:
        if type(n) is not int:
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        options = None
        if type(edges) is list or type(edges) is tuple:
            try:
                colors = frozenset(map(itemgetter(2), edges))
                ranks = sorted(colors)
                positive = not ranks or ranks[0] >= 1
            except (TypeError, LookupError):
                # An edge with no third item, or colours that cannot be hashed
                # or compared.
                positive = False
            if positive:
                options = _index(n, edges, ranks)
        if options is None:
            edges = _normalised(n, edges)
            colors = frozenset(map(itemgetter(2), edges))
            options = _index(n, edges, sorted(colors))
            if options is None:
                raise _violation(edges)
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.options: tuple[tuple[int, ...], ...] = tuple(map(tuple, options))
        self.colors = colors

    def degree(self, v: int) -> int:
        return len(self.options[v])

    def has_edge(self, u: int, v: int, color: int | None = None) -> bool:
        """Whether u and v are adjacent, by an edge of ``color`` when one is
        given.  Vertices and colour must be ``int`` exactly: 1.0 and True
        equal 1 but name no vertex or colour."""
        if type(u) is type(v) is int and 0 <= u < self.n and 0 <= v < self.n:
            pair = (u, v) if u < v else (v, u)
            edges = self.edges
            i = bisect_left(edges, pair)
            if i < len(edges) and edges[i][:2] == pair:
                return color is None or (type(color) is int and edges[i][2] == color)
        return False

    def without_vertex(self, v: int) -> "EdgeColoredGraph":
        """Copy with every edge at v removed (vertex ids are preserved)."""
        return EdgeColoredGraph(self.n, [e for e in self.edges if v not in (e[0], e[1])])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeColoredGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"EdgeColoredGraph(n={self.n}, m={len(self.edges)})"


def _normalised(n: int, edges) -> list[Edge]:
    """The edges with ``u < v``, sorted; a value that is not an ``int``, a
    vertex out of range, a colour below 1 or a loop raises on the first edge
    that has one, in input order."""
    normalised: list[Edge] = []
    for u, v, color in edges:
        # ``type(x) is int``, not isinstance: bool is a subclass of int.
        if type(u) is not int or type(v) is not int:
            bad = v if type(u) is int else u
            raise ValueError(f"vertex must be an integer, got {bad!r}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        if type(color) is not int or color < 1:
            raise ValueError(f"colour must be a positive integer, got {color!r}")
        normalised.append((u, v, color) if u < v else (v, u, color))
    normalised.sort()
    return normalised


class _Bits(dict):
    """Vertex to ``1 << vertex`` memo: each bit is made on first use."""

    def __missing__(self, w: int) -> int:
        bit = self[w] = 1 << w
        return bit


def _vertex_bits(n: int, m: int) -> list[int] | _Bits:
    """``1 << w`` by vertex w, for a graph of ``n`` vertices and ``m``
    edges.  A list of every bit holds about n * n / 16 bytes, so a graph
    with more vertices than edge ends makes only the bits its edges use."""
    return [1 << w for w in range(n)] if n <= 2 * m else _Bits()


def _index(n: int, edges, ranks: list[int]) -> list[list[int]] | None:
    """Option table of ``edges``, or None unless they are canonical and
    properly coloured.

    Canonical edges are tuples ``(u, v, colour)`` of ``int`` with
    ``0 <= u < v < n``, in strictly increasing vertex-pair order; ``ranks``
    is the sorted colour set, all at least 1.  The loop tests only that
    form.  Properness is tested once on the finished table: each entry holds
    exactly two bits, and the pair order rules out a repeated neighbour, so
    a row's sum keeps all 2 * deg of its bits exactly when no colour repeats
    at that vertex, since each repeat loses at least one bit to a carry.  On
    sorted ``_normalised`` edges only a repeated pair or a colour clash
    gives None.
    """
    # Colour bits sit above the n vertex bits, as in the table.
    colour_bit = {c: 1 << (n + r) for r, c in enumerate(ranks)}
    vertex_bit = _vertex_bits(n, len(edges))
    options: list[list[int]] = [[] for _ in range(n)]
    prev_u = prev_v = 0
    for edge in edges:
        if type(edge) is not tuple:
            return None
        # A tuple that is not a triple raises here as it would in
        # _normalised, which every edge before it passes.
        u, v, color = edge
        # The type test comes first: True and 1.0 hash equal to 1, so the
        # colour lookup alone would take them for colour 1.
        if not (type(u) is type(v) is type(color) is int and v < n
                and (prev_v < v if u == prev_u else prev_u < u < v)):
            return None
        cb = colour_bit[color]
        options[u].append(vertex_bit[v] | cb)
        options[v].append(vertex_bit[u] | cb)
        prev_u, prev_v = u, v
    if sum(map(int.bit_count, map(sum, options))) != 4 * len(edges):
        return None
    return options


def _from_colour_rows(n: int, rows, bits: list[int]) -> EdgeColoredGraph:
    """The graph of a greedy colouring: edge ``i`` is the pair of
    ``rows[i] = (u, v, 1 << u, 1 << v)``, coloured by the bit ``bits[i]``,
    colour ``bits[i].bit_length()``.

    Nothing is checked here.  The rows are the canonical edge index of the
    base graph (``int`` pairs ``0 <= u < v < n`` in strictly increasing
    order, see :class:`generators.SimpleGraph`), and two facts about the
    greedy colouring stand in for the constructor's work:

    * The colours are exactly 1..k.  Colour c is given only when 1..c-1
      are all taken at an endpoint, so every colour below the largest is
      used.  The rank of colour c is c - 1, ``bits[i]`` is already its
      rank bit (shifted above the ``n`` vertex bits in the table), and
      ``colors`` is ``frozenset(range(1, k + 1))``.
    * The colouring is proper: each bit was clear at both endpoints when it
      was given.
    """
    options: list[list[int]] = [[] for _ in range(n)]
    edges: list[Edge] = []
    for (u, v, ub, vb), bit in zip(rows, bits):
        edges.append((u, v, bit.bit_length()))
        cb = bit << n
        options[u].append(vb | cb)
        options[v].append(ub | cb)
    graph = EdgeColoredGraph.__new__(EdgeColoredGraph)
    graph.n = n
    graph.edges = tuple(edges)
    graph.options = tuple(map(tuple, options))
    graph.colors = frozenset(range(1, max(bits, default=0).bit_length() + 1))
    return graph


def _violation(edges: list[Edge]) -> DuplicateEdge | ImproperColoring:
    """The first fault of sorted ``_normalised`` edges that :func:`_index`
    rejects: a repeated pair, or else the earlier edge of the same colour
    at the lower endpoint, then at the upper one."""
    first: dict[tuple[int, int], Edge] = {}
    pair = None
    for edge in edges:
        u, v, color = edge
        if edge[:2] == pair:
            return DuplicateEdge(f"vertex pair ({u}, {v}) appears more than once")
        pair = edge[:2]
        for key in ((u, color), (v, color)):
            if key in first:
                return ImproperColoring(first[key], edge)
        first[u, color] = first[v, color] = edge


def _edge_of(edges: tuple[Edge, ...], mask: int) -> Edge:
    """The edge of the sorted ``edges`` whose two vertex bits are the two
    lowest bits of ``mask``: an option entry ORed with its vertex's bit, or
    a walk's witness link.  Any bits above them (a colour's) are ignored."""
    low = mask & -mask
    rest = mask ^ low
    pair = (low.bit_length() - 1, (rest & -rest).bit_length() - 1)
    return edges[bisect_left(edges, pair)]


def build_graph(n: int, edges) -> EdgeColoredGraph:
    """Validate and build an :class:`EdgeColoredGraph` from raw triples."""
    return EdgeColoredGraph(n, edges)


class Matching:
    """An edge set meant to be pairwise vertex-disjoint.

    The class itself stores any edge tuple collection (sorted, canonical);
    use :func:`is_rainbow_matching` to test disjointness and colour
    distinctness against a host graph.
    """

    __slots__ = ("edges",)

    def __init__(self, edges=()) -> None:
        self.edges: tuple[Edge, ...] = tuple(sorted(tuple(e) for e in edges))

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in (e[0], e[1]))

    @property
    def colors(self) -> tuple[int, ...]:
        return tuple(e[2] for e in self.edges)

    def is_vertex_disjoint(self) -> bool:
        seen: set[int] = set()
        for u, v, _c in self.edges:
            if u in seen or v in seen:
                return False
            seen.add(u)
            seen.add(v)
        return True

    def has_distinct_colors(self) -> bool:
        cols = self.colors
        return len(set(cols)) == len(cols)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        return f"Matching({list(self.edges)!r})"


def min_degree(graph: EdgeColoredGraph) -> int:
    return min(map(len, graph.options), default=0)


def max_degree(graph: EdgeColoredGraph) -> int:
    return max(map(len, graph.options), default=0)


def color_classes(graph: EdgeColoredGraph) -> dict[int, tuple[Edge, ...]]:
    """Edges grouped by colour.  Properness makes each class a matching."""
    classes: dict[int, list[Edge]] = {}
    for e in graph.edges:
        classes.setdefault(e[2], []).append(e)
    return {c: tuple(es) for c, es in classes.items()}


def is_rainbow_matching(graph: EdgeColoredGraph, matching: Matching) -> bool:
    """True iff the edges are vertex-disjoint with pairwise distinct colours.

    Every edge must exist in the host graph with the stated colour,
    otherwise :class:`UnknownEdge` is raised.  The empty matching is a
    rainbow matching.
    """
    _require_edges(graph, matching.edges)
    return matching.is_vertex_disjoint() and matching.has_distinct_colors()


def _require_edges(graph: EdgeColoredGraph, edges) -> None:
    """Raise :class:`UnknownEdge` on the first of ``edges`` that is not in
    the graph with its colour (see :meth:`EdgeColoredGraph.has_edge`)."""
    for u, v, c in edges:
        if not graph.has_edge(u, v, c):
            raise UnknownEdge(f"edge ({u}, {v}, {c}) is not in the graph")


def bound_n(delta: int) -> int:
    """Smallest order at which minimum degree ``delta`` forces a rainbow
    matching of size ``delta``: the ceiling of (9*delta - 5) / 2."""
    if delta < 1:
        raise ValueError("delta must be at least 1")
    return (9 * delta - 4) // 2

