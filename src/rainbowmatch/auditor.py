"""Structural audit of stuck matching states and counting-bound certification.

Given a graph whose rule engine stalled one short of a target size,
:func:`audit_state` measures the structure that blocks further growth.
With a stuck rainbow matching M of size delta - 1 and a largest
monochromatic matching whose colour is unused by M, it makes one pass, in
the order of its twelve checks:

* ``uncovered`` is the vertex set missed by M, and a *good* edge has a
  colour unused by M and an endpoint uncovered; no good edge may lie
  inside the uncovered set (``matching-maximality``);
* a matched pair is *good* when at least 7 good edges meet one of its
  ends, which orients it and extends the uncovered set by its partner;
  3 good edges at one end forbid any at the other
  (``good-pair-dichotomy``);
* a *nice* edge has a colour outside the non-good pairs' colours and an
  endpoint in the extended set; no nice edge lies inside that set
  (``nice-separation``).  Every good edge is nice by definition: the
  non-good pairs' colours are matched colours, which good edges avoid,
  and the extended set contains the uncovered set;
* *nice* pairs are the remaining pairs promoted by the same rule over nice
  edges, under the same dichotomy (``nice-pair-dichotomy``);
* among the leftover pairs, the *mono-touched* ones send an edge of the
  monochromatic colour into the uncovered set, and their count is bounded
  below by the class size and the other counts (``touched-count-bounds``);
* last come the inequalities between those counts: the degree cap, the
  absence of good and nice pair colours inside the extended set, the
  nice-edge cap, the mono colour multiplicity, the order inequality and
  the pair-count slack.

The right-hand side of the order inequality is written once, in
``_doubled_order_bound`` (at twice its scale, so that every value is an
integer).  ``certify_counting_bound`` maximises that same function over
every admissible count tuple and shows that it keeps the host order below
the rainbow-matching threshold of :func:`rainbowmatch.graphs.bound_n`.  At
a fixed good-pair count and class size each nice pair strictly lowers the
order bound, so only tuples without one are evaluated; for a fixed
good-pair count the bound is linear and then concave-quadratic in the
class size, so it maximises each piece at a few integer candidates in
exact arithmetic instead of scanning every class size; and a relaxation
that is concave in the good-pair count bounds those maxima, so only the
counts around its peak are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import run_engine
from .errors import BudgetExceeded, InvalidState, NotStuck
from .graphs import (
    Edge,
    EdgeColoredGraph,
    Matching,
    _require_edges,
    color_classes,
    is_rainbow_matching,
    max_degree,
    min_degree,
)

GOOD_EDGE_THRESHOLD = 7   # incident good/nice edges that qualify a vertex
DICHOTOMY_THRESHOLD = 3   # this many at one endpoint forbids any at the other

# Failures of these audit checks are informational, not violations.
NON_BINDING_CHECKS = {"pair-count-slack", "degree-cap"}


@dataclass(frozen=True)
class ClaimCheck:
    """Verdict for one audited structural statement."""

    name: str
    holds: bool
    witness: tuple = ()
    note: str = ""


@dataclass
class MatchedPair:
    """One matched edge with its audit role.

    ``kind`` is one of good, nice, mono-touched, plain.  On a good or nice
    pair ``x`` is the end with the larger count (``u`` on a tie), and
    ``oriented`` says only that end reaches the threshold; otherwise ``x``
    is the lower id.
    """

    x: int
    y: int
    color: int
    kind: str = "plain"
    oriented: bool = False
    good_at_x: int = 0
    good_at_y: int = 0
    nice_at_x: int = 0
    nice_at_y: int = 0
    index: int = 0


@dataclass
class AuditReport:
    """Counts, labelled pairs and check verdicts for one stuck state.

    The counts (r, s, a, t) are ``good_pair_count``, ``nice_pair_count``,
    ``max_class_size`` and ``mono_touched_count``; ``order_bound`` is the
    right-hand side of ``order-inequality`` at those counts.
    """

    delta: int
    n: int
    matching: Matching
    mono: Matching
    mono_color: int | None
    max_class_size: int
    uncovered: frozenset[int]
    extended_uncovered: frozenset[int]
    pairs: list[MatchedPair]
    good_edges: tuple[Edge, ...]
    nice_edges: tuple[Edge, ...]
    good_pair_count: int
    nice_pair_count: int
    mono_touched_count: int
    order_bound: int
    checks: list[ClaimCheck]

    def check(self, name: str) -> ClaimCheck | None:
        for c in self.checks:
            if c.name == name:
                return c
        return None


def _promote(pairs: list[MatchedPair], edges, covered: frozenset[int],
             kind: str) -> dict[int, int]:
    """Count ``edges`` at each covered vertex and promote every plain pair
    with GOOD_EDGE_THRESHOLD of them at one end to ``kind``, with x at the
    larger count.  Returns the counts."""
    at = dict.fromkeys(covered, 0)
    for u, v, _ in edges:
        if u in at:
            at[u] += 1
        if v in at:
            at[v] += 1
    for p in pairs:
        ax, ay = at[p.x], at[p.y]
        if p.kind == "plain" and max(ax, ay) >= GOOD_EDGE_THRESHOLD:
            p.kind = kind
            p.oriented = (ax >= GOOD_EDGE_THRESHOLD) != (ay >= GOOD_EDGE_THRESHOLD)
            if ay > ax:
                p.x, p.y = p.y, p.x
    return at


def _dichotomy_fails(a: int, b: int) -> bool:
    return max(a, b) >= DICHOTOMY_THRESHOLD and min(a, b) >= 1


def audit_state(graph: EdgeColoredGraph, matching: Matching, mono: Matching,
                delta: int | None = None) -> AuditReport:
    """Audit an explicit state: classify its pairs and run the twelve
    checks, in one pass in check order.  Good edges are nice by
    definition, so that inclusion is not among them.

    ``matching`` must be rainbow with exactly ``delta - 1`` edges (delta
    defaults to its size plus one); ``mono`` must be a monochromatic
    matching whose colour the rainbow matching does not use.  Violations
    raise :class:`InvalidState`.  A failed check is not an error: a good
    edge lying entirely inside the uncovered set, for instance, is
    recorded as a failed ``matching-maximality`` check with the offending
    edges as witness.
    """
    if not is_rainbow_matching(graph, matching):
        raise InvalidState("the matching must be a rainbow matching of the graph")
    if delta is None:
        delta = len(matching) + 1
    elif len(matching) != delta - 1:
        raise InvalidState(
            f"matching has {len(matching)} edges, expected delta - 1 = {delta - 1}")
    matched_colors = set(matching.colors)
    mono_color = None
    if len(mono) > 0:
        mono_colors = set(mono.colors)
        if len(mono_colors) != 1:
            raise InvalidState("the comparison matching must be monochromatic")
        mono_color = next(iter(mono_colors))
        if mono_color in matched_colors:
            raise InvalidState("the monochromatic colour must be unused by the matching")
        if not mono.is_vertex_disjoint():
            raise InvalidState("the monochromatic edge set must be a matching")
        _require_edges(graph, mono.edges)

    n = graph.n
    covered = matching.vertices
    uncovered = frozenset(range(n)) - covered
    checks: list[ClaimCheck] = []

    # Good edges and good pairs.
    good_edges = tuple(
        e for e in graph.edges
        if e[2] not in matched_colors and (e[0] in uncovered or e[1] in uncovered)
    )
    inside = tuple(e for e in good_edges
                   if e[0] in uncovered and e[1] in uncovered)
    checks.append(ClaimCheck("matching-maximality", not inside, inside,
                             note="every good edge must meet a matched vertex; "
                                  "a failure means a direct extension exists"))
    pairs = [MatchedPair(x=u, y=v, color=c) for u, v, c in matching.edges]
    good_at = _promote(pairs, good_edges, covered, "good")
    bad = tuple(e for e in matching.edges if _dichotomy_fails(good_at[e[0]], good_at[e[1]]))
    checks.append(ClaimCheck("good-pair-dichotomy", not bad, bad,
                             note=f"{DICHOTOMY_THRESHOLD} good edges at one endpoint forbid any "
                                  "at the partner; a failure means a one-for-two exchange exists"))

    # Nice edges over the extended set and nice pairs among the rest.  With
    # no good pair the extended set is the uncovered set, nice coincides
    # with good and no nice pair can appear.
    excluded = {p.color for p in pairs if p.kind != "good"}
    extended = uncovered | frozenset(p.y for p in pairs if p.kind == "good")
    nice_edges = tuple(
        e for e in graph.edges
        if e[2] not in excluded and (e[0] in extended or e[1] in extended)
    )
    inside = tuple(e for e in nice_edges if e[0] in extended and e[1] in extended)
    checks.append(ClaimCheck("nice-separation", not inside, inside,
                             note="nice edges must leave the extended uncovered set"))
    nice_at = _promote(pairs, nice_edges, covered, "nice")
    bad = tuple((p.x, p.y, p.color) for p in pairs
                if p.kind != "good" and _dichotomy_fails(nice_at[p.x], nice_at[p.y]))
    checks.append(ClaimCheck("nice-pair-dichotomy", not bad, bad,
                             note="same dichotomy as good pairs, over nice edges and the "
                                  "remaining pairs; a failure means a deeper exchange exists"))

    # Both counts are read at the final orientation.  A plain pair with an
    # edge of the mono colour into the uncovered set is mono-touched.
    touching = {w for u, v, c in graph.edges if c == mono_color
                for w, z in ((u, v), (v, u)) if z in uncovered}
    for p in pairs:
        p.good_at_x, p.good_at_y = good_at[p.x], good_at[p.y]
        p.nice_at_x, p.nice_at_y = nice_at[p.x], nice_at[p.y]
        if p.kind == "plain" and (p.x in touching or p.y in touching):
            p.kind = "mono-touched"
    r = sum(1 for p in pairs if p.kind == "good")
    s = sum(1 for p in pairs if p.kind == "nice")
    t = sum(1 for p in pairs if p.kind == "mono-touched")
    a = len(mono)
    # The upper bound in the note needs no check: r, s and t count
    # disjoint kinds of the delta - 1 pairs.
    lb = Fraction(2 * (a - delta + 1) - (r + s), 2)
    checks.append(ClaimCheck("touched-count-bounds", t >= lb,
                             note=f"touched={t}, lower bound {lb}, "
                                  f"and good+nice+touched <= {delta - 1}"))
    rank = {"good": 0, "nice": 1, "mono-touched": 2, "plain": 3}
    pairs.sort(key=lambda p: rank[p.kind])
    for i, p in enumerate(pairs, start=1):
        p.index = i

    # Degree cap, colour absence, count caps and the order inequality.
    cap = 3 * (delta - 1)
    heavy = tuple((v, graph.degree(v)) for v in range(n) if graph.degree(v) > cap)
    checks.append(ClaimCheck("degree-cap", not heavy, heavy,
                             note=f"max degree {max_degree(graph)} vs cap {cap}; conditional: a "
                                  "failure only means the vertex-reduction move applies"))
    good_colors = {p.color for p in pairs if p.kind == "good"}
    paired_colors = good_colors | {p.color for p in pairs if p.kind == "nice"}
    inside = [e for e in graph.edges if e[0] in extended and e[1] in extended]
    bad = tuple(e for e in inside if e[2] in good_colors)
    checks.append(ClaimCheck("good-color-absence", not bad, bad,
                             note="good pair colours may not appear inside the extended "
                                  "uncovered set"))
    bad = tuple(e for e in inside if e[2] in paired_colors)
    checks.append(ClaimCheck("nice-color-absence", not bad, bad,
                             note="good and nice pair colours may not appear inside the "
                                  "extended uncovered set"))
    nice_cap = (3 * delta - 9 + s) * r + 6 * (delta - 1)
    checks.append(ClaimCheck("nice-edge-cap", len(nice_edges) <= nice_cap,
                             ((len(nice_edges), nice_cap),),
                             note=f"{len(nice_edges)} nice edges vs cap {nice_cap}"))
    inside_by_color: dict[int, list[Edge]] = {}
    for e in graph.edges:
        if e[0] in uncovered and e[1] in uncovered:
            inside_by_color.setdefault(e[2], []).append(e)
    bad = tuple((p.color, tuple(inside_by_color[p.color])) for p in pairs
                if p.kind == "mono-touched" and len(inside_by_color.get(p.color, ())) > 1)
    checks.append(ClaimCheck("mono-color-multiplicity", not bad, bad,
                             note="a mono-touched pair colour fits at most one edge inside "
                                  "the uncovered set"))
    lhs = delta * n
    rhs = _doubled_order_bound(delta, r, s, a, 2 * t) // 2
    checks.append(ClaimCheck("order-inequality", lhs <= rhs,
                             note=f"delta*n = {lhs} vs structural bound {rhs}"))
    checks.append(ClaimCheck("pair-count-slack", 5 * r + 3 * s < 2 * (delta + 1),
                             note=f"5*good + 3*nice = {5 * r + 3 * s} vs {2 * (delta + 1)}; "
                                  "diagnostic"))

    return AuditReport(delta=delta, n=n, matching=matching, mono=mono,
                       mono_color=mono_color, max_class_size=a,
                       uncovered=uncovered, extended_uncovered=extended,
                       pairs=pairs, good_edges=good_edges, nice_edges=nice_edges,
                       good_pair_count=r, nice_pair_count=s, mono_touched_count=t,
                       order_bound=rhs, checks=checks)


def pick_mono_class(graph: EdgeColoredGraph, matching: Matching) -> Matching:
    """Largest colour class whose colour the matching does not use
    (ties: smallest colour).  Properness makes every class a matching."""
    used = set(matching.colors)
    best: tuple[int, int] | None = None
    classes = color_classes(graph)
    for color, edges in classes.items():
        if color in used:
            continue
        key = (-len(edges), color)
        if best is None or key < best:
            best = key
    if best is None:
        return Matching()
    return Matching(classes[best[1]])


def audit_stuck_state(graph: EdgeColoredGraph, target: int | None = None,
                      max_exchange_depth: int = 3,
                      node_budget: int | None = None):
    """Drive the engine toward ``target`` (default: the minimum degree) and
    audit the stuck state.  Returns ``(report, engine_result)``; raises
    :class:`NotStuck` when the engine reaches the target and
    :class:`BudgetExceeded` when a budget stops it before it is stuck."""
    if target is None:
        target = min_degree(graph)
    if target < 1:
        raise ValueError("target must be at least 1")
    result = run_engine(graph, target, max_exchange_depth,
                        node_budget=node_budget)
    if result.size >= target:
        raise NotStuck(f"engine reached size {result.size}, target {target}")
    if result.trace[-1].note:
        raise BudgetExceeded(f"engine stopped at size {result.size}: "
                             f"{result.trace[-1].note}")
    mono = pick_mono_class(graph, result.best)
    report = audit_state(graph, result.best, mono)
    return report, result


@dataclass(frozen=True)
class CertResult:
    """Outcome of the counting-bound certification for one delta."""

    delta: int
    holds: bool
    worst_tuple: tuple  # (good pairs, nice pairs, class size, touched as Fraction)
    worst_n: Fraction
    margin: Fraction
    tuples_checked: int

    # Not a field.  Its one reason to exist is the certify workload's check
    # (perfbench/workloads.py, _certify_check), which still reads it.
    forms_agree = True


def _doubled_order_bound(delta: int, r: int, s: int, a: int, t2: int) -> int:
    """Twice the right-hand side of the order inequality at good-pair count
    r, nice-pair count s, class size a and twice the touched count t2:
    2C + 2(a-1)B - (a-2)*t2, with C = (3*delta - 10 - r)*r
    + 2*(delta + 3)*(delta - 1) and B = 2*delta - 2 - 2r - s.  It is even
    when t2 is."""
    return (2 * (3 * delta - 10 - r) * r + 4 * (delta + 3) * (delta - 1)
            + 2 * (a - 1) * (2 * delta - 2 - 2 * r - s) - (a - 2) * t2)


def _best_at(delta: int, r: int) -> tuple[int, int, int] | None:
    """First maximiser ``(doubled bound, a, 2t)`` over the class sizes at
    good-pair count r and s = 0, or None when no class size is admissible."""
    hi = (4 * delta - 4 - r) // 2
    if hi < 2:
        return None
    b = 2 * delta - 2 - 2 * r
    flat_end = (2 * delta - 2 + r) // 2   # last a with t = 0
    if flat_end >= hi:   # t stays 0 on the whole range
        candidates = (2 if b == 0 else hi,)
    else:
        # Quadratic piece flat_end+1..hi: the floor of the apex and
        # the integer after it, clipped to the piece.
        apex = (2 * b + 2 * delta + 2 + r) // 4
        if apex > flat_end:
            quad = (apex, apex + 1) if apex < hi else (hi,)
        else:
            quad = (flat_end + 1,)
        if flat_end < 2:
            candidates = quad
        else:
            candidates = (2 if b == 0 else flat_end,) + quad
    best = None
    for a in candidates:
        t2 = 2 * (a - delta + 1) - r
        if t2 < 0:
            t2 = 0
        val = _doubled_order_bound(delta, r, 0, a, t2)
        if best is None or val > best[0]:
            best = (val, a, t2)
    return best


def _relaxation(delta: int, r: int) -> int:
    """8 * U(r): eight times the largest doubled bound at good-pair count r
    and s = 0 over real class sizes a from the activation point of t on,
    as the closed forms A(r) up to the split 5r = 2*delta + 2 and B(r)
    past it (see :func:`certify_counting_bound`)."""
    if 5 * r <= 2 * delta + 2:   # the apex is at or past the activation point
        return -7 * r * r + (12 * delta - 132) * r + 68 * delta * delta - 24 * delta - 28
    return -32 * r * r + (32 * delta - 112) * r + 64 * delta * delta - 32 * delta - 32


def _tuple_count(delta: int) -> int:
    """The sum of max(r, 1) * (hi(r) - 1) over r = 0..delta-1."""
    s1 = delta * (delta - 1) // 2                          # sum of r
    s2 = delta * (delta - 1) * (2 * delta - 1) // 6        # sum of r * r
    odd = (delta // 2) ** 2                                # sum of the odd r
    # 2 * (hi(r) - 1) = m - 2 - r - (r & 1) with m = 4*delta - 4; r = 0 has
    # weight 1, not r.
    return ((4 * delta - 6) * (s1 + 1) - s2 - odd) // 2


def certify_counting_bound(delta: int) -> CertResult:
    """Certify that every admissible count tuple keeps the order below the
    rainbow threshold (9*delta - 5) / 2.

    The tuples are the good-pair count r >= 0, the nice-pair count s >= 0
    (a nice pair requires a good one), the class size a >= 2 and the
    least touched count t = max(0, a - delta + 1 - (r+s)/2) allowed by the
    audit bounds; tuples with r + s + t > delta - 1 are not admissible.
    With p = r + s and B = 2*delta - 2 - 2r - s (not negative, as
    p <= delta - 1), the admissible sizes are
    2 <= a <= hi(p) = (4*delta - 4 - p) // 2, and on them the doubled
    bound is :func:`_doubled_order_bound`, 2*C + 2*(a-1)*B - (a-2)*2t
    with C = C(delta, r): the one formula that :func:`audit_state` halves
    for its ``order-inequality`` check.  No admissible class size exceeds
    2*delta - 2, so no cap is needed.

    The nice-pair count drops out.  Fix r and an admissible a, and raise s
    by one: p rises by one, so hi can only shrink (no new a is admitted),
    C is unchanged, B falls by one and 2t falls by one while it is
    positive.  The doubled bound therefore falls by 2*(a-1) when t = 0 and
    by a when t > 0, strictly in both cases as a >= 2.  So every tuple
    with s > 0 scores strictly below the admissible tuple (r, s-1, a), and
    by induction below (r, 0, a): the maximum over all tuples is attained
    only at s = 0, and the first maximiser in (r, s, a) order is the first
    one in (r, a) order at s = 0.  Only s = 0 is evaluated.

    For each r the bound at s = 0 is maximised over a in closed form; it
    has two pieces:

    * while a <= (2*delta - 2 + p) // 2, t is 0 and the bound is linear
      and non-decreasing in a, so the piece's right end is a maximiser
      (a = 2 when B = 0, where the piece is flat);
    * past that point 2t = 2a - 2*delta + 2 - p and the bound is a concave
      quadratic with apex (2B + 2*delta + 2 + p) / 4, so the floor of the
      apex or the integer after it, clipped to the piece, is a maximiser.

    Those candidates are evaluated in increasing a with a strict
    comparison, so each r yields its first maximiser.

    Only a few r are evaluated.  At s = 0 write K = 2*delta - 2 + r and
    take the quadratic piece to real r and a:
    q(r, a) = 2C + 2(a-1)B - (a-2)(2a - K).  Its Hessian is
    [[-4, -3], [-3, -4]], so q is jointly concave.  Let U(r) be the
    maximum of q over real a >= K/2, where t starts.  When
    5r <= 2*delta + 2 the apex lies there and
    8U = 16C - 16B - 16K + (2B + K + 4)^2; otherwise q falls from K/2 on
    and U = q(r, K/2) = 2C + (2*delta - 4 + r)*B.  U is at least the
    doubled bound at every admissible (r, a): from K/2 on the bound is q,
    and before it the bound is the t = 0 line, of slope 2B >= 0 in a,
    which meets q at K/2.  U is the maximum of a jointly concave function
    over the convex set a >= K/2, so it is concave in r.

    On each side of the split 5r = 2*delta + 2, 8U is a quadratic in r:
    up to it A(r) = -7r^2 + (12*delta - 132)r + 68*delta^2 - 24*delta - 28,
    with apex (6*delta - 66)/7, and past it
    B(r) = -32r^2 + (32*delta - 112)r + 64*delta^2 - 32*delta - 32, with
    apex (2*delta - 7)/4; :func:`_relaxation` evaluates these two
    polynomials.  A's apex lies on A's piece exactly when
    delta <= 21, and B's on B's piece exactly when delta >= 22, so that
    apex is U's peak.  The per-r maximisation runs at its floor, clipped
    to 0..delta-1, then outward in each direction while U(r) is at least
    the best value so far.

    Any start gives the same answer.  U is concave, so every set
    {r : U(r) >= c} is an interval.  Let r* be the first maximiser of the
    full grid, with value M, and let v be the best value so far, found at
    r'.  Both U(r*) >= M >= v and U(r') >= v, so U >= v on every r between
    r' and r*, and the walk, which stops only where U drops below v,
    reaches r* from either side.  Among the visited r the largest value
    with the smallest r wins, so ``worst_tuple`` is the first maximiser of
    the full (r, s, a) grid.  Everything is an integer: the bound at twice
    the natural scale and U at eight times that.  From the apex, at most
    three U and two per-r maxima are evaluated for every delta <= 3000 and
    at delta = 10^4 and 10^5.

    ``tuples_checked`` counts every admissible tuple the certificate
    covers, those with s > 0 through the argument above.  Exactly one pair
    (r, s) has p = 0 and exactly p pairs (r = 1..p) have a given p >= 1,
    so it is the sum of max(r, 1) * (hi(r) - 1) over r = 0..delta-1.
    With M = 4*delta - 4 even, hi(r) = (M - r - (r & 1)) / 2, so the sum is
    a closed form in the sums of r, of r^2 and of the odd r.
    """
    if type(delta) is not int:
        raise ValueError(f"delta must be an integer, got {delta!r}")
    if delta < 2:
        raise ValueError("delta must be at least 2")

    # U's peak: A's apex up to delta = 21, B's apex from 22 on.
    apex = (6 * delta - 66) // 7 if delta <= 21 else (2 * delta - 7) // 4
    return _certify_from(delta, min(max(apex, 0), delta - 1))


def chain_order(delta: int) -> int:
    """n*(delta): the order from which the proof chain itself proves the
    theorem, ``floor(certify_counting_bound(delta).worst_n) + 1``.

    ``worst_n`` is the largest order at which a stuck state can meet every
    count the audit checks, so if each link of the chain holds, no graph of
    this order or more is stuck below ``delta``.  It is at most
    :func:`~rainbowmatch.graphs.bound_n`.  A ``delta`` below 2 raises
    ``ValueError``, as :func:`certify_counting_bound` does.
    """
    worst_n = certify_counting_bound(delta).worst_n
    return worst_n.numerator // worst_n.denominator + 1


def _certify_from(delta: int, start: int) -> CertResult:
    """The certificate of :func:`certify_counting_bound`, with the walk
    over good-pair counts started at ``start`` in 0..delta-1."""
    best = None   # (doubled bound, -r, a, 2t): the largest, then the first r
    for step, r in ((1, start), (-1, start - 1)):
        while 0 <= r < delta and (best is None or _relaxation(delta, r) >= 8 * best[0]):
            found = _best_at(delta, r)
            if found is not None:
                val, a, t2 = found
                if best is None or (val, -r) > best[:2]:
                    best = (val, -r, a, t2)
            r += step
    assert best is not None
    best_val, neg_r, a, t2 = best
    threshold = delta * (9 * delta - 5)   # (9*delta - 5) / 2 at the scale 2*delta
    return CertResult(
        delta=delta,
        holds=best_val < threshold,
        worst_tuple=(-neg_r, 0, a, Fraction(t2, 2)),
        worst_n=Fraction(best_val, 2 * delta),
        margin=Fraction(threshold - best_val, 2 * delta),
        tuples_checked=_tuple_count(delta),
    )
