"""Exact rainbow-matching search and counting over int bitmasks.

One vertex-branching branch and bound serves max, decide and the rule
engine's exchange.  At each node it takes the lowest free vertex and
branches on how that vertex is covered: by one of its compatible edges
(lowest edge id first), or by none.  Every matching has exactly one such
choice at every vertex, so the tree holds each matching once.  The state
of a node is the matching size and one mask, the used-or-skipped vertices
with the used colours above them.  The witness is a linked chain of edge
masks, shared by every node below it.  A node is cut when the matching
built so far plus an optimistic completion bound cannot reach what is
needed (the incumbent plus one, or the target size).  The bound is the
smaller of half the free vertices and the unused colours, two popcounts
per node.  The "leave it unmatched" child is pushed only while the other
free vertices can still hold what is needed.

A walk returns one plain tuple: the witness chain, its size, the nodes
visited, the milestones (each new incumbent and a budget stop) as plain
``(event, size, node)`` tuples, and whether the budget stopped it.
``_result`` is the one place that publishes a walk, as a
:class:`SolveResult` whose trace holds :class:`SearchEvent` entries; the
exchange reads the tuple and builds neither.

Counting builds the same tree without a colour cut or an incumbent, so
on a Latin square's K_{n,n} encoding it is the independent oracle for
``count_transversals``, which meets in the middle instead.  A node is the
edges still needed and the same used mask, and a one-edge node counts its
last edge in place.  Equal states have equal subtrees, so the counter
expands each distinct state once, with its number of tree nodes.

Both walks read the graph's per-vertex option table, which
:class:`~rainbowmatch.graphs.EdgeColoredGraph` fills while it validates:
one mask per option, the other endpoint's bit with the colour's bit
above the ``n`` vertex bits.  An option fits a node when it shares no bit
with the node's used mask, so neither walk has a setup pass of its own.
Colour bits are indexed by the colour's rank among the graph's colours,
never by the colour value itself.  The search keeps an explicit stack
and the counter its merged levels, so no graph is too deep for either and
the interpreter's recursion limit is never touched.  Both are
deterministic: identical inputs give identical trees, traces and node
counts.  Each call is single-threaded; calls on different graphs can run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded
from .graphs import EdgeColoredGraph, Matching, _edge_of


@dataclass(frozen=True)
class SearchEvent:
    """One solver milestone: a new incumbent or a budget stop."""

    event: str
    size: int
    node: int


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve or an engine run.

    ``optimal`` is True only when an exhaustive search finished within
    budget; the rule engine always reports False.  ``trace`` holds
    :class:`SearchEvent` entries for the solver and rule steps for the
    engine.
    """

    best: Matching
    size: int
    optimal: bool
    nodes_explored: int
    trace: tuple = ()


def _node_limit(node_budget: int | None):
    """A walk's node cap: none for ``None``; a negative budget raises
    ``ValueError``, and 0 visits no node."""
    if node_budget is None:
        return math.inf
    if node_budget < 0:
        raise ValueError(f"node budget must be at least 0, got {node_budget}")
    return node_budget


def _search(graph: EdgeColoredGraph, target: int | None,
            node_budget: int | None, used: int = 0):
    """Vertex-branching branch and bound over the graph's option table.

    With ``target`` None the search maximises; otherwise it stops at the
    first matching of ``target`` edges.  ``used`` marks the vertices and,
    above the ``n`` vertex bits, the colour ranks already taken, as in the
    option table; the sizes counted are of the edges added to them.
    The search stops before it would visit node ``node_budget + 1``.

    Returns ``(chain, size, nodes, events, budget_hit)``: the witness chain
    of the best matching found (``(edge mask, rest of the chain)``, where
    the edge mask is an option entry ORed with its vertex's bit, or None
    for none), its size, the nodes visited, the milestones as plain
    ``(event, size, node)`` tuples and whether the budget stopped the walk.
    :func:`_result` publishes a walk; the exchange reads the tuple as is.
    """
    limit = _node_limit(node_budget)
    options = graph.options
    n = graph.n
    everyone = (1 << n) - 1
    colours = ((1 << len(graph.colors)) - 1) << n
    maximise = target is None
    need = 1 if maximise else target
    nodes = best_size = 0
    best = None
    events = []
    # A node is (size, used-or-skipped vertices | used colours << n, witness chain).
    stack = [(0, used, None)]
    while stack:
        size, used, chain = stack.pop()
        if nodes >= limit:
            events.append(("budget", size, nodes))
            return best, best_size, nodes, events, True
        nodes += 1
        if size > best_size:
            best, best_size = chain, size
            events.append(("incumbent", size, nodes))
            if maximise:
                need = size + 1
            elif size >= need:   # a matching of the target size
                return best, best_size, nodes, events, False
        free = everyone & ~used
        room = free.bit_count()
        # Cut unless half the free vertices and the unused colours can
        # both still reach ``need``.
        if (size + (room >> 1) < need
                or size + (colours & ~used).bit_count() < need):
            continue
        low = free & -free
        if size + ((room - 1) >> 1) >= need:
            stack.append((size, used | low, chain))
        size += 1
        used |= low
        for m in reversed(options[low.bit_length() - 1]):
            if not used & m:
                stack.append((size, used | m, (low | m, chain)))
    return best, best_size, nodes, events, False


def _matching(graph: EdgeColoredGraph, chain) -> Matching:
    edges = graph.edges
    picked = []
    while chain is not None:
        mask, chain = chain
        picked.append(_edge_of(edges, mask))
    return Matching(picked)


def _result(graph: EdgeColoredGraph, walk) -> SolveResult:
    """The public record of a :func:`_search` walk, optimal unless the
    budget stopped it; the one place a walk's events become
    :class:`SearchEvent` entries.  A decide walk returns at its witness
    before any budget stop, so a budget stop leaves it below its target."""
    chain, size, nodes, events, budget_hit = walk
    return SolveResult(
        best=_matching(graph, chain),
        size=size,
        optimal=not budget_hit,
        nodes_explored=nodes,
        trace=tuple([SearchEvent(*event) for event in events]),
    )


def max_rainbow_matching(graph: EdgeColoredGraph,
                         node_budget: int | None = None) -> SolveResult:
    """Maximum rainbow matching of a properly edge-coloured graph.

    With a node budget the search may stop early; the result then carries
    the incumbent with ``optimal=False``.
    """
    return _result(graph, _search(graph, None, node_budget))


def rainbow_matching_at_least(graph: EdgeColoredGraph, k: int,
                              node_budget: int | None = None) -> Matching | None:
    """First rainbow matching of size >= k, or None when none exists.

    The search exits as soon as a witness appears.  ``k == 0`` returns the
    empty matching.  Exhausting the node budget before resolution raises
    :class:`BudgetExceeded`.
    """
    result = solve_decision(graph, k, node_budget)
    if result.size >= k:
        return result.best
    if not result.optimal:
        raise BudgetExceeded(f"node budget {node_budget} hit before deciding size {k}")
    return None


def solve_decision(graph: EdgeColoredGraph, k: int,
                   node_budget: int | None = None) -> SolveResult:
    """Decision-form solve with node telemetry.

    ``optimal`` means the question was resolved: either ``size >= k``
    (witness found) or the whole tree was exhausted below k.
    """
    if k <= 0:
        return SolveResult(Matching(), 0, True, 0, ())
    return _result(graph, _search(graph, k, node_budget))


def count_rainbow_matchings(graph: EdgeColoredGraph, size: int,
                            node_budget: int | None = None) -> int:
    """Number of rainbow matchings with exactly ``size`` edges.

    Branches on the lowest free vertex: one child per compatible edge at
    it, and one that leaves it unmatched while the other free vertices can
    still hold the edges still needed.  There is no colour cut, so the
    count is an independent oracle for transversal counting.  An option
    (a mask of the graph's table) is compatible when it shares no bit with
    the node's used-or-skipped mask.  A one-edge node counts its last edge
    in place.  A node's subtree depends only on its state, the edges still
    needed and the used mask, so each distinct state is expanded once with
    its number of tree nodes, and the node total is the plain tree's.
    Raises :class:`BudgetExceeded` when the tree holds more than
    ``node_budget`` nodes; a negative budget raises ``ValueError``.  The
    states of two levels are held at once: on a random order-9 square's
    encoding they peak at 0.6 MB for size 9 and 9.6 MB for size 6.
    """
    limit = _node_limit(node_budget)
    if size < 0:
        return 0
    if size == 0:
        return 1
    n = graph.n
    if n < 2 * size:   # no room at the root, so the tree is that one node
        if limit < 1:
            raise BudgetExceeded(f"node budget {node_budget} hit while counting")
        return 0
    options = graph.options
    everyone = (1 << n) - 1
    spare = n - 2 * size   # the vertices a matching of ``size`` leaves free
    nodes = count = 0
    # Levels go by edges still needed, from ``size`` down.  below[s] maps
    # each used mask of the next level that left s vertices unmatched to
    # its number of tree nodes; a skip child leaves one more than its
    # parent, so each state is complete before the sweep reaches it.
    below = [{0: 1}] + [{} for _ in range(spare)]
    for need in range(size, 0, -1):
        level, below = below, [{} for _ in range(spare + 1)]
        for skips, states in enumerate(level):
            child = below[skips]
            for used, k in states.items():
                nodes += k
                if nodes > limit:
                    raise BudgetExceeded(f"node budget {node_budget} hit while counting")
                free = everyone & ~used
                low = free & -free
                opts = options[low.bit_length() - 1]
                used |= low
                if skips < spare:
                    skip = level[skips + 1]
                    skip[used] = skip.get(used, 0) + k
                if need == 1:
                    count += k * sum([not used & m for m in opts])
                    continue
                for m in opts:
                    if not used & m:
                        m |= used
                        child[m] = child.get(m, 0) + k
    return count
