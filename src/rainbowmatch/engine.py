"""Rule engine that grows a rainbow matching by local moves.

The engine seeds with a greedy pass, then repeatedly applies the first
applicable rule in this fixed priority order until a target size is
reached or nothing fires:

* direct: add the first edge (by id) whose endpoints are free and whose
  colour is unused;
* mono: trade a matched edge for a same-coloured free edge plus a
  fresh-coloured pendant at one of the freed endpoints;
* exchange: remove up to ``k`` matched edges and insert ``k + 1``
  replacement edges keeping the matching rainbow, found by the solver's
  exact core in decide mode from the kept edges, at ``k`` = 1, 2, ... up
  to the exchange depth;
* vertex reduce, aimed one past the current size: delete one vertex of
  very high degree, find a matching of the smaller target in the rest
  with one decide call, and extend back through that vertex by pigeonhole.

Every rule either returns a rainbow matching exactly one edge larger or
reports non-applicability, so a trace replays deterministically.  The
order is written once, in one lazy move list: :func:`run_engine` applies
its first move that fires, and :func:`applicable_rules` lists every move
that fires.  The greedy seed, direct and vertex reduce's pigeonhole step
share one first-fit scan over edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceeded, InvalidState
from .graphs import Edge, EdgeColoredGraph, Matching, _edge_of, _require_edges, max_degree
from .solver import SolveResult, _matching, _node_limit, _search, rainbow_matching_at_least

RULE_SEED = "R-seed"
RULE_DIRECT = "R-direct"
RULE_MONO = "R-mono"
RULE_VERTEX_REDUCE = "R-vertex-reduce"


@dataclass(frozen=True)
class RuleStep:
    """One trace entry: which rule fired and the edge delta it applied."""

    rule: str
    removed: tuple[Edge, ...]
    added: tuple[Edge, ...]
    note: str = ""

    def to_json_dict(self) -> dict:
        """Like :func:`rainbowmatch.io.to_json`, minus an empty note."""
        obj = {
            "rule": self.rule,
            "removed": [list(e) for e in self.removed],
            "added": [list(e) for e in self.added],
        }
        if self.note:
            obj["note"] = self.note
        return obj


def _compatible(edges, used_v: set[int], used_c: set[int]):
    """Yield, in order, each of ``edges`` that shares no vertex with
    ``used_v`` and no colour with ``used_c``, adding it to both sets."""
    for e in edges:
        u, v, c = e
        if u not in used_v and v not in used_v and c not in used_c:
            used_v.add(u)
            used_v.add(v)
            used_c.add(c)
            yield e


def greedy_rainbow(graph: EdgeColoredGraph) -> Matching:
    """Scan edges in canonical order, keeping each vertex- and
    colour-compatible edge."""
    return Matching(_compatible(graph.edges, set(), set()))


def _matched_bits(graph, matching):
    """``(bits, used)``: each matched edge's mask (its option entry ORed
    with its lower endpoint's bit: two vertex bits and a colour bit above
    the ``n`` vertex bits), and their union.  A matched edge absent from
    the graph raises :class:`UnknownEdge`.  Matched edges that share a
    vertex or a colour raise :class:`InvalidState`: for k edges the union
    must hold 3k bits."""
    _require_edges(graph, matching.edges)
    bits = []
    for u, v, _c in matching.edges:
        vb = 1 << v
        bits.extend((1 << u) | m for m in graph.options[u] if m & vb)
    used = 0
    for mask in bits:
        used |= mask
    if used.bit_count() != 3 * len(bits):
        raise InvalidState("the matched edges must share no vertex and no colour")
    return bits, used


def rule_direct(graph: EdgeColoredGraph, matching: Matching) -> Matching | None:
    """First edge (by id) with both endpoints free and an unused colour.
    A matched edge absent from the graph raises :class:`UnknownEdge`;
    matched edges that share a vertex or a colour raise
    :class:`InvalidState`."""
    _matched_bits(graph, matching)
    e = next(_compatible(graph.edges, set(matching.vertices), set(matching.colors)),
             None)
    return None if e is None else Matching(matching.edges + (e,))


def rule_exchange(graph: EdgeColoredGraph, matching: Matching, depth: int = 3,
                  node_budget: int | None = None) -> Matching | None:
    """Remove up to ``depth`` matched edges, insert one more than removed.

    Removal subsets are tried smallest first, in index order over the
    matched edges.  For each, the solver's exact core decides whether
    ``removals + 1`` edges fit beside the kept ones, and its first witness
    is taken.  Returns the first strictly larger rainbow matching found.
    ``node_budget`` bounds the total core node count; hitting it raises
    :class:`BudgetExceeded`.  A matched edge absent from the graph raises
    :class:`UnknownEdge`.  A negative ``depth`` raises ``ValueError``, as
    in :func:`run_engine`; 0 tries no exchange.

    The kept edges' mask is the union of every matched edge's mask (its
    vertex bits and its colour bit, as in the option table) with the
    removed edges' masks XORed out, which is exact only for a rainbow
    matching: matched edges that share a vertex or a colour
    raise :class:`InvalidState`, at any depth, as in every rule.
    """
    _check_depth(depth)
    _node_limit(node_budget)
    found, _removals, budget_hit = _exchange(graph, matching, depth, node_budget, [0])
    if budget_hit:
        raise BudgetExceeded(f"node budget {node_budget} hit in the exchange")
    return found


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError(f"exchange depth must be at least 0, got {depth}")


def _exchange(graph, matching, depth, budget, counter):
    """The walk behind :func:`rule_exchange`: ``(matching or None, removals,
    budget hit)``.  Core nodes add up in ``counter[0]``, capped by ``budget``.

    The matched edges' masks are ORed once into one used mask, vertices
    with colours above them; each removal subset XORs out its removed
    edges' masks.  That is exact because :func:`_matched_bits` has checked
    that the matched edges share no vertex and no colour."""
    medges = matching.edges
    k = len(medges)
    bits, all_used = _matched_bits(graph, matching)
    for removals in range(1, min(depth, k) + 1):
        for removed_idx in combinations(range(k), removals):
            used = all_used
            for i in removed_idx:
                used ^= bits[i]
            chain, size, nodes, _events, budget_hit = _search(
                graph, removals + 1,
                None if budget is None else budget - counter[0], used)
            counter[0] += nodes
            if size > removals:
                keep = [e for i, e in enumerate(medges) if i not in removed_idx]
                return Matching(keep + list(_matching(graph, chain))), removals, False
            if budget_hit:
                return None, removals, True
    return None, depth, False


def rule_mono(graph: EdgeColoredGraph, matching: Matching) -> Matching | None:
    """Swap a matched edge for a free edge of the same colour plus a
    fresh-coloured pendant at a freed endpoint.

    Pattern: matched xy of colour i, a free edge uv also coloured i, and
    an edge from x or y to a free vertex w outside {u, v} whose colour is
    absent from the matching.  Nets exactly one extra edge.  A matched edge
    absent from the graph raises :class:`UnknownEdge`; matched edges that
    share a vertex or a colour raise :class:`InvalidState`.
    """
    _matched_bits(graph, matching)
    used_v = matching.vertices
    used_c = set(matching.colors)
    for matched in matching.edges:
        x, y, color = matched
        for free_edge in graph.edges:
            u, v, c = free_edge
            if c != color or u in used_v or v in used_v:
                continue
            for z in (x, y):
                zb = 1 << z
                for m in graph.options[z]:
                    # The lowest bit of an entry is its other endpoint's.
                    w = (m & -m).bit_length() - 1
                    if w in used_v or w == u or w == v:
                        continue
                    pendant = _edge_of(graph.edges, zb | m)
                    if pendant[2] in used_c:
                        continue
                    keep = tuple(e for e in matching.edges if e != matched)
                    return Matching(keep + (free_edge, pendant))
    return None


def rule_vertex_reduce(graph: EdgeColoredGraph, target: int,
                       node_budget: int | None = None) -> Matching | None:
    """Reach ``target`` through a vertex of degree above 3*(target - 1).

    Deletes the single highest-degree qualifying vertex (ties broken by
    lowest id), finds a rainbow matching of size ``target - 1`` in the rest
    with one decide call, then adds a pigeonhole edge back at the deleted
    vertex: with degree above 3*(target - 1), at most 2*(target - 1)
    incident edges are blocked by matched vertices and at most target - 1
    by used colours, so a compatible edge survives whenever the smaller
    matching exists.  The decide call raises :class:`BudgetExceeded` when
    ``node_budget`` runs out before it decides.
    """
    _node_limit(node_budget)
    if target < 1 or max_degree(graph) <= 3 * (target - 1):
        return None
    pivot = max(range(graph.n), key=graph.degree)
    sub = rainbow_matching_at_least(graph.without_vertex(pivot), target - 1,
                                    node_budget)
    if sub is None:
        return None
    # The pigeonhole count above guarantees a compatible edge at the pivot.
    pivot_edges = (e for e in graph.edges if pivot in e[:2])
    return Matching(sub.edges + (next(_compatible(
        pivot_edges, set(sub.vertices), set(sub.colors))),))


def run_engine(graph: EdgeColoredGraph, target: int,
               max_exchange_depth: int = 3,
               node_budget: int | None = None) -> SolveResult:
    """Greedy seed, then the first rule that fires, in the priority order
    of the module docstring, until target or no rule fires.

    ``node_budget`` caps the run's exchange core nodes
    (``nodes_explored``) and vertex reduce's decide call; hitting
    it adds a note to the trace and is never raised.  The result is a
    heuristic: ``optimal`` is always False.  A negative
    ``max_exchange_depth`` raises ``ValueError``; 0 runs no exchange.
    """
    _check_depth(max_exchange_depth)
    _node_limit(node_budget)
    if target <= 0:
        return SolveResult(Matching(), 0, False, 0,
                           (RuleStep(RULE_SEED, (), ()),))
    current = greedy_rainbow(graph)
    steps = [RuleStep(RULE_SEED, (), current.edges)]
    exchange_counter = [0]
    while len(current) < target:
        moves = _moves(graph, current, len(current) + 1, max_exchange_depth,
                       node_budget, exchange_counter)
        rule, improved, note = next(
            (move for move in moves if move[1] is not None or move[2]), ("", None, ""))
        if note:
            steps.append(RuleStep(rule, (), (), note=note))
        if improved is None:
            break
        before = set(current.edges)
        after = set(improved.edges)
        steps.append(RuleStep(
            rule,
            removed=tuple(sorted(before - after)),
            added=tuple(sorted(after - before)),
        ))
        current = improved
    return SolveResult(
        best=current,
        size=len(current),
        optimal=False,
        nodes_explored=exchange_counter[0],
        trace=tuple(steps),
    )


def _moves(graph, matching, goal, depth, node_budget, counter):
    """The rules in priority order, lazily: one ``(trace rule name, larger
    matching or None, budget note)`` per rule, vertex reduce aimed at
    ``goal``.  Exchange core nodes add up in ``counter[0]``.  Ends after a
    budget note."""
    yield RULE_DIRECT, rule_direct(graph, matching), ""
    yield RULE_MONO, rule_mono(graph, matching), ""
    found, removals, hit = _exchange(graph, matching, depth, node_budget, counter)
    yield f"R-exchange-{removals}", found, "node budget hit" if hit else ""
    if hit:
        return
    try:
        yield RULE_VERTEX_REDUCE, rule_vertex_reduce(graph, goal, node_budget), ""
    except BudgetExceeded as exc:
        yield RULE_VERTEX_REDUCE, None, str(exc)


def applicable_rules(graph: EdgeColoredGraph, matching: Matching,
                     target: int | None = None,
                     max_exchange_depth: int = 3,
                     node_budget: int | None = None) -> list[str]:
    """Short names (``direct``, ``mono``, ``exchange``, ``vertex-reduce``)
    of the engine rules that fire on this state, from the engine's own
    move list; audit helper.

    Vertex reduce aims at ``target``, by default one past the matching's
    size, as the engine does.  ``node_budget`` bounds the exchange and vertex
    reduce's decide call; hitting it raises :class:`BudgetExceeded`.  A
    negative ``max_exchange_depth`` raises ``ValueError``.
    """
    _check_depth(max_exchange_depth)
    _node_limit(node_budget)
    goal = target if target is not None else len(matching) + 1
    names = []
    for rule, found, note in _moves(graph, matching, goal, max_exchange_depth,
                                    node_budget, [0]):
        if note:
            raise BudgetExceeded(note if rule == RULE_VERTEX_REDUCE else
                                 f"node budget {node_budget} hit in the exchange")
        if found is not None:
            # "R-exchange-2" -> "exchange", "R-vertex-reduce" -> "vertex-reduce"
            names.append(rule[2:].rstrip("-0123456789"))
    return names


def replay_trace(trace) -> Matching:
    """Re-apply a trace from the empty matching; strict about edge sets."""
    edges: set[Edge] = set()
    for step in trace:
        for e in step.removed:
            if e not in edges:
                raise ValueError(f"trace removes absent edge {e}")
            edges.discard(e)
        for e in step.added:
            if e in edges:
                raise ValueError(f"trace adds duplicate edge {e}")
            edges.add(e)
    return Matching(edges)


def trace_to_json_lines(trace) -> str:
    """One JSON object per line, in application order."""
    import json

    return "\n".join(json.dumps(step.to_json_dict(), sort_keys=True)
                     for step in trace) + ("\n" if trace else "")
