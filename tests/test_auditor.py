import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from rainbowmatch import (
    BudgetExceeded,
    CertResult,
    InvalidState,
    Matching,
    NotStuck,
    UnknownEdge,
    applicable_rules,
    audit_state,
    audit_stuck_state,
    bound_n,
    build_graph,
    certify_counting_bound,
    color_classes,
    greedy_proper_coloring,
    max_rainbow_matching,
    min_degree,
    pick_mono_class,
    random_graph_min_degree,
    rule_direct,
    rule_mono,
    run_engine,
    to_json,
)

from rainbowmatch import auditor
from rainbowmatch.auditor import (
    _best_at,
    _certify_from,
    chain_order,
    _doubled_order_bound,
    _relaxation,
    _tuple_count,
)

from conftest import (
    as_pinned_audit,
    cyclic_knn,
    k33_cyclic,
    k4_one_factorization,
    pendant_star,
    random_instance,
)


CHECK_NAMES = (
    "matching-maximality", "good-pair-dichotomy", "nice-separation",
    "nice-pair-dichotomy", "touched-count-bounds", "degree-cap",
    "good-color-absence", "nice-color-absence", "nice-edge-cap",
    "mono-color-multiplicity", "order-inequality", "pair-count-slack",
)


def stuck_k4_state():
    g = k4_one_factorization()
    res = run_engine(g, 2)
    assert res.size == 1
    mono = pick_mono_class(g, res.best)
    return g, res.best, mono


# ------------------------------------------------------------- basic audit

def test_k4_stuck_audit_quantities():
    g, matching, mono = stuck_k4_state()
    report = audit_state(g, matching, mono)
    assert report.delta == 2
    assert report.n == 4
    assert len(report.uncovered) == 2 == report.n - 2 * (report.delta - 1)
    assert report.max_class_size == 2
    assert report.good_pair_count == 0
    assert report.nice_pair_count == 0
    assert report.mono_touched_count == 1
    assert len(report.good_edges) == 4
    assert set(report.nice_edges) == set(report.good_edges)
    assert report.extended_uncovered == report.uncovered
    assert all(c.holds for c in report.checks)
    assert len(report.checks) == 12


def test_k4_order_inequality_numbers():
    g, matching, mono = stuck_k4_state()
    report = audit_state(g, matching, mono)
    check = report.check("order-inequality")
    assert check.holds
    assert "8" in check.note and "12" in check.note


def test_report_serialises_to_json():
    g, matching, mono = stuck_k4_state()
    report = audit_state(g, matching, mono)
    payload = json.loads(json.dumps(to_json(report)))
    assert payload["delta"] == 2
    assert {c["name"] for c in payload["checks"]} >= {
        "matching-maximality", "order-inequality", "nice-edge-cap"}


def test_pair_indices_are_relabelled_by_kind():
    g, matching, mono = stuck_k4_state()
    report = audit_state(g, matching, mono)
    assert [p.index for p in report.pairs] == [1]
    assert report.pairs[0].kind == "mono-touched"


# -------------------------------------------------------------- good stage

def test_seven_pendants_make_a_good_pair():
    edges = [(0, 1, 1)] + [(0, 2 + i, 2 + i) for i in range(7)]
    g = build_graph(9, edges)
    matching = Matching([(0, 1, 1)])
    report = audit_state(g, matching, pick_mono_class(g, matching))
    assert report.good_pair_count == 1
    pair = report.pairs[0]
    assert pair.kind == "good" and pair.x == 0 and pair.oriented
    assert pair.good_at_x == 7 and pair.good_at_y == 0
    assert report.extended_uncovered == report.uncovered | {1}


def test_six_pendants_stay_plain():
    edges = [(0, 1, 1)] + [(0, 2 + i, 2 + i) for i in range(6)]
    g = build_graph(8, edges)
    matching = Matching([(0, 1, 1)])
    report = audit_state(g, matching, pick_mono_class(g, matching))
    assert report.good_pair_count == 0


def test_planted_inside_edge_fails_maximality_and_direct_rule_fires():
    g = build_graph(5, [(0, 1, 1), (2, 3, 2)])
    matching = Matching([(0, 1, 1)])
    report = audit_state(g, matching, pick_mono_class(g, matching))
    check = report.check("matching-maximality")
    assert not check.holds
    assert (2, 3, 2) in {tuple(w) for w in check.witness}
    assert rule_direct(g, matching) is not None


def test_good_dichotomy_violation_detected():
    edges = [(0, 1, 1),
             (0, 2, 2), (0, 3, 3), (0, 4, 4),
             (1, 5, 5)]
    g = build_graph(6, edges)
    matching = Matching([(0, 1, 1)])
    report = audit_state(g, matching, pick_mono_class(g, matching))
    assert not report.check("good-pair-dichotomy").holds


# -------------------------------------------------------------- nice stage

def test_no_good_pairs_means_nice_equals_good():
    g, matching, mono = stuck_k4_state()
    report = audit_state(g, matching, mono)
    assert report.good_pair_count == 0
    assert set(report.nice_edges) == set(report.good_edges)
    assert report.nice_pair_count == 0


def test_nice_edge_cap_attained_with_equality():
    # One good pair carrying 8 fresh pendants (plus its own matched edge,
    # which is nice once the pair is good) and two plain pairs carrying 6
    # pendants each: 21 nice edges, exactly the cap for delta=4, r=1, s=0.
    edges = [(0, 1, 1), (2, 3, 2), (4, 5, 3)]
    edges += [(0, 6 + i, 4 + i) for i in range(8)]
    edges += [(2, 14 + i, 12 + i) for i in range(6)]
    edges += [(4, 20 + i, 18 + i) for i in range(6)]
    g = build_graph(26, edges)
    matching = Matching([(0, 1, 1), (2, 3, 2), (4, 5, 3)])
    report = audit_state(g, matching, pick_mono_class(g, matching))
    assert report.good_pair_count == 1
    assert report.nice_pair_count == 0
    assert len(report.nice_edges) == 21
    check = report.check("nice-edge-cap")
    assert check.holds and tuple(check.witness[0]) == (21, 21)


# ------------------------------------------------------------ touch counts

def test_touched_lower_bound_achieved_exactly():
    # Three same-coloured edges: two touch the first pair, one sits inside
    # the uncovered set, so exactly one pair is touched and the bound
    # t >= a - delta + 1 is tight at 1.
    edges = [(0, 1, 1), (2, 3, 2), (0, 4, 5), (1, 5, 5), (6, 7, 5)]
    g = build_graph(8, edges)
    matching = Matching([(0, 1, 1), (2, 3, 2)])
    mono = Matching([(0, 4, 5), (1, 5, 5), (6, 7, 5)])
    report = audit_state(g, matching, mono)
    assert report.max_class_size == 3
    assert report.mono_touched_count == 1 == report.max_class_size - report.delta + 1
    assert report.check("touched-count-bounds").holds
    # the in-uncovered mono edge also breaks maximality, jointly detectable
    assert not report.check("matching-maximality").holds
    assert rule_direct(g, matching) is not None


def test_mono_multiplicity_violation_and_mono_rule_fire_jointly():
    g = build_graph(8, [(0, 1, 1), (2, 3, 1), (4, 5, 1), (0, 6, 2), (1, 7, 3)])
    matching = Matching([(0, 1, 1)])
    mono = Matching([(0, 6, 2)])
    report = audit_state(g, matching, mono)
    assert report.mono_touched_count == 1
    check = report.check("mono-color-multiplicity")
    assert not check.holds
    witness_edges = {tuple(e) for _, pair in check.witness for e in pair}
    assert witness_edges == {(2, 3, 1), (4, 5, 1)}
    assert rule_mono(g, matching) is not None
    assert "mono" in applicable_rules(g, matching)


def test_applicable_rules_rejects_negative_depth():
    # Depth 3 lists the exchange; a negative depth must not drop it quietly.
    g = build_graph(8, [(0, 1, 1), (2, 3, 1), (4, 5, 1), (0, 6, 2), (1, 7, 3)])
    matching = Matching([(0, 1, 1)])
    assert applicable_rules(g, matching, 2, 3) == ["mono", "exchange"]
    assert applicable_rules(g, matching, 2, 0) == ["mono"]
    with pytest.raises(ValueError, match="exchange depth must be at least 0, got -1"):
        applicable_rules(g, matching, 2, -1)


# --------------------------------------------------------------- validation

def test_non_rainbow_matching_rejected():
    g = k4_one_factorization()
    with pytest.raises(InvalidState):
        audit_state(g, Matching([(0, 1, 1), (2, 3, 1)]), Matching())


def test_delta_mismatch_rejected():
    g, matching, mono = stuck_k4_state()
    with pytest.raises(InvalidState):
        audit_state(g, matching, mono, delta=3)


def test_mono_sharing_colour_rejected():
    g = k4_one_factorization()
    matching = Matching([(0, 1, 1)])
    with pytest.raises(InvalidState):
        audit_state(g, matching, Matching([(2, 3, 1)]))


def test_mono_with_two_colours_rejected():
    g = k4_one_factorization()
    matching = Matching([(0, 1, 1)])
    with pytest.raises(InvalidState):
        audit_state(g, matching, Matching([(0, 2, 2), (1, 2, 3)]))


def test_mono_foreign_edge_rejected():
    g = k4_one_factorization()
    matching = Matching([(0, 1, 1)])
    # The second edge is in the graph with the colour 2, which 2.0 equals
    # but is not.
    for edge in [(0, 3, 9), (0, 2, 2.0)]:
        with pytest.raises(UnknownEdge):
            audit_state(g, matching, Matching([edge]))


def test_empty_mono_allowed():
    g = build_graph(4, [(0, 1, 1), (2, 3, 2)])
    matching = Matching([(0, 1, 1), (2, 3, 2)])
    report = audit_state(g, matching, Matching(), delta=3)
    assert report.max_class_size == 0
    assert report.mono_touched_count == 0


# ---------------------------------------------------------- mono selection

def test_pick_mono_class_largest_then_smallest_colour():
    g = k4_one_factorization()
    mono = pick_mono_class(g, Matching([(0, 1, 1)]))
    assert mono.colors == (2, 2)  # classes 2 and 3 tie at size 2
    assert len(mono) == 2


def test_pick_mono_class_empty_when_all_colours_used():
    g = build_graph(4, [(0, 1, 1), (2, 3, 2)])
    mono = pick_mono_class(g, Matching([(0, 1, 1), (2, 3, 2)]))
    assert len(mono) == 0


# ------------------------------------------------------------- stuck audits

def test_audit_stuck_state_on_k4():
    report, engine_res = audit_stuck_state(k4_one_factorization(), 2)
    assert report.delta == 2
    assert engine_res.size == 1
    assert all(c.holds for c in report.checks)


def test_audit_not_stuck_on_k33():
    with pytest.raises(NotStuck):
        audit_stuck_state(k33_cyclic(), 3)


def test_audit_refuses_a_state_the_budget_stopped():
    # The depth-1 exchange needs 6 core nodes; with 5 the engine stops at
    # size 1 on a state the exchange still extends.
    with pytest.raises(BudgetExceeded):
        audit_stuck_state(pendant_star(), 2, node_budget=5)
    with pytest.raises(NotStuck):
        audit_stuck_state(pendant_star(), 2, node_budget=6)


def test_audit_target_must_be_positive():
    with pytest.raises(ValueError):
        audit_stuck_state(k4_one_factorization(), 0)


def test_stuck_states_satisfy_maximality_checks_or_a_rule_fires():
    # Spot-check over seeded instances: on engine-stuck states the checks
    # justified by maximality alone hold, unless a deeper rule still fires.
    guarded = ("matching-maximality", "good-pair-dichotomy",
               "nice-pair-dichotomy")
    audited = 0
    for seed in range(2000, 2600):
        g = random_instance(seed)
        target = min_degree(g)
        if target < 1:
            continue
        try:
            report, _ = audit_stuck_state(g, target)
        except NotStuck:
            continue
        audited += 1
        assert len(report.uncovered) == report.n - 2 * (report.delta - 1)
        assert set(report.good_edges) <= set(report.nice_edges)
        assert report.good_pair_count + report.nice_pair_count \
            + report.mono_touched_count <= report.delta - 1 or \
            not report.check("touched-count-bounds").holds
        for name in guarded:
            check = report.check(name)
            if not check.holds:
                assert applicable_rules(g, report.matching, target, 5), \
                    f"{name} failed with no applicable rule (seed {seed})"
    assert audited >= 20


def engine_stuck_states():
    """``(graph, target, report)`` for the seeded instances of the test
    above on which the engine stalls."""
    for seed in range(2000, 2600):
        g = random_instance(seed)
        target = min_degree(g)
        if target < 1:
            continue
        try:
            report, _ = audit_stuck_state(g, target)
        except NotStuck:
            continue
        yield g, target, report


def test_no_rule_applies_where_the_engine_stopped_without_a_note():
    # Why the CLI's engine-path audit lists no rule without searching: the
    # engine stops without a budget note only after direct, mono, the
    # exchange to its depth and vertex reduce aimed one past the matching
    # all failed within its budget.  The tight budget is the run's own
    # exchange node count; runs whose vertex-reduce call it cuts short are
    # skipped, as audit_stuck_state refuses them.  On the three gadgets
    # mono, the exchange and vertex reduce fire, so the engine is not stuck
    # there unless it skips a rule.
    gadgets = [
        (build_graph(6, [(0, 1, 1), (2, 3, 1), (0, 4, 2), (1, 5, 3)]), 3),
        (pendant_star(), 2),
        (build_graph(8, [(0, i, i) for i in range(1, 8)] + [(1, 2, 8)]), 2),
    ]
    audited = budgeted = 0
    for g, target in [s[:2] for s in engine_stuck_states()] + gadgets:
        for depth in range(4):
            try:
                _, res = audit_stuck_state(g, target, depth)
            except NotStuck:
                continue
            for budget in (None, res.nodes_explored):
                try:
                    report, _ = audit_stuck_state(g, target, depth, budget)
                except BudgetExceeded:
                    continue
                m = report.matching
                assert applicable_rules(g, m, len(m) + 1, depth, budget) == []
                audited += 1
                budgeted += budget is not None
    assert audited >= 300 and budgeted >= 150, (audited, budgeted)


def audit_corpus():
    """Explicit states over seeded graphs with d = 3..10 and n up to 34.
    The rainbow matching is grown in a random edge order and cut at a
    random size, so it need not be maximal; the mono class is the empty
    matching and then up to five unused colour classes."""
    for seed in range(40):
        rng = random.Random(seed)
        d = rng.randint(3, 10)
        n = rng.randint(d + 1, 34)
        p = rng.choice((0.0, 0.1, 0.3))
        g = greedy_proper_coloring(random_graph_min_degree(n, d, seed, p), seed)
        order = list(g.edges)
        rng.shuffle(order)
        size = rng.randint(1, d)
        chosen, used_v, used_c = [], set(), set()
        for u, v, c in order:
            if len(chosen) == size:
                break
            if u in used_v or v in used_v or c in used_c:
                continue
            chosen.append((u, v, c))
            used_v |= {u, v}
            used_c.add(c)
        unused = [es for c, es in sorted(color_classes(g).items())
                  if c not in used_c]
        rng.shuffle(unused)
        matching = Matching(chosen)
        for mono in [Matching()] + [Matching(es) for es in unused[:5]]:
            yield g, matching, mono


def test_audit_reports_are_pinned():
    # sha256 of the JSON report of every corpus state, taken before the
    # four audit stages were folded into one pass, while reports still
    # carried the always-true good-nice-inclusion check and no order_bound
    # field; the check is put back and the field dropped before hashing.
    # Every check fails somewhere in the corpus, and good and nice pairs
    # both occur.
    digest = hashlib.sha256()
    failed = dict.fromkeys(CHECK_NAMES, 0)
    good = nice = 0
    for g, matching, mono in audit_corpus():
        report = audit_state(g, matching, mono)
        payload = as_pinned_audit(to_json(report))
        digest.update(json.dumps(payload, sort_keys=True).encode())
        assert [c.name for c in report.checks] == list(CHECK_NAMES)
        for c in report.checks:
            failed[c.name] += not c.holds
        good += report.good_pair_count > 0
        nice += report.nice_pair_count > 0
    assert digest.hexdigest() == \
        "f19bb8b08b9af766ffd73969b92045bdb30d6dfb3b700b19e68af87edf071d72"
    assert min(failed.values()) > 0, failed
    assert good > 0 and nice > 0


def test_good_edges_are_nice_and_pair_kinds_fit_in_the_matching():
    # The identities behind two checks the audit does not make: good edges
    # avoid every matched colour and meet the uncovered set, which the
    # extended set contains, so they are nice; and good, nice and
    # mono-touched pairs are disjoint kinds of the delta - 1 pairs.
    reports = [audit_state(g, m, mono) for g, m, mono in audit_corpus()]
    reports += [report for _g, _t, report in engine_stuck_states()]
    assert sum(r.good_pair_count > 0 for r in reports) > 0
    for report in reports:
        assert set(report.good_edges) <= set(report.nice_edges)
        assert report.good_pair_count + report.nice_pair_count \
            + report.mono_touched_count <= report.delta - 1


def seeded_stuck_reports():
    """Audits of the states where the engine, at exchange depth 0, stalls
    short of d on seeded graphs with d = 3..8 and n = 2d..2d + 2."""
    for d in range(3, 9):
        for n in range(2 * d, 2 * d + 3):
            for seed in range(150):
                g = greedy_proper_coloring(random_graph_min_degree(n, d, seed), seed)
                try:
                    report, _ = audit_stuck_state(g, d, 0)
                except NotStuck:
                    continue
                yield report


def test_audited_tuples_lie_under_the_certified_maximum():
    # The chain from a stuck state to the threshold.  A state with a class
    # of at least two edges that passes touched-count-bounds gives counts
    # (r, s, a, t) in the certificate's domain, and the audit's
    # order-inequality bound is at most the certificate's maximum: the
    # certificate takes the least touched count, and the bound falls as t
    # rises when a >= 2.
    reports = [audit_state(g, m, mono) for g, m, mono in audit_corpus()]
    reports += seeded_stuck_reports()
    checked = 0
    for report in reports:
        if report.max_class_size < 2 or not report.check("touched-count-bounds").holds:
            continue
        d, a = report.delta, report.max_class_size
        r, s, t = (report.good_pair_count, report.nice_pair_count,
                   report.mono_touched_count)
        assert r + s + t <= d - 1 and a <= 2 * d - 2, (d, r, s, a, t)
        rhs = report.order_bound
        assert report.check("order-inequality").note.endswith(f" {rhs}")
        assert 2 * rhs <= 2 * d * certify_counting_bound(d).worst_n, (d, r, s, a, t)
        checked += 1
    # 78 corpus states and 551 engine-stuck ones.
    assert checked >= 600, checked


def test_mono_class_listing_one_edge_twice_is_refused():
    # Matching keeps duplicates, so the vertex-disjointness check is the
    # only guard against a class that lists one graph edge twice.
    g, matching, _ = stuck_k4_state()
    mono = Matching([(0, 2, 2), (0, 2, 2)])
    assert len(mono) == 2
    with pytest.raises(InvalidState, match="must be a matching"):
        audit_state(g, matching, mono)


def test_stuck_audits_never_get_an_empty_mono_class():
    # A graph of minimum degree d needs at least d colours, so a stuck
    # state below a target of at most d leaves one unused and the class
    # passed to audit_state is never empty (it would fail order-inequality,
    # as the glued K4s below show).
    reports = [report for _g, _t, report in engine_stuck_states()]
    reports += seeded_stuck_reports()
    assert len(reports) == 39 + 551
    for report in reports:
        assert len(report.mono) > 0


# ------------------------------------------------ every maximum state

def glued_k4s():
    """Two 1-factorised K4s sharing vertex 3: colours 1-3 on vertices 0-3
    and 4-6 on vertices 3-6.  Minimum degree 3, optimum 2."""
    k4 = [(0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2), (0, 3, 3), (1, 2, 3)]
    return build_graph(7, k4 + [(u + 3, v + 3, c + 3) for u, v, c in k4])


def rainbow_matchings(graph, size):
    """Every rainbow matching of ``size`` edges, as edge tuples in edge-id
    order: a depth-first walk that adds only later edges avoiding the
    vertices and colours already taken."""
    edges = graph.edges

    def extend(start, picked, verts, cols):
        if len(picked) == size:
            yield picked
            return
        for i in range(start, len(edges)):
            u, v, c = edges[i]
            if u not in verts and v not in verts and c not in cols:
                yield from extend(i + 1, picked + (edges[i],),
                                  verts | {u, v}, cols | {c})

    yield from extend(0, (), frozenset(), frozenset())


def maximum_state_audits(graph):
    """``(matching, report)`` for every rainbow (d - 1)-matching of
    a graph at optimum d - 1, d its minimum degree, with every colour
    class the matching leaves unused as the mono class."""
    d = min_degree(graph)
    assert max_rainbow_matching(graph).size == d - 1
    classes = sorted(color_classes(graph).items())
    for edges in rainbow_matchings(graph, d - 1):
        matching = Matching(edges)
        used = set(matching.colors)
        for colour, class_edges in classes:
            if colour not in used:
                yield matching, audit_state(graph, matching, Matching(class_edges), d)


@pytest.mark.parametrize("graph, states, audits", [
    (glued_k4s(), 27, 108),
    (cyclic_knn(4), 32, 32),
    (cyclic_knn(6), 288, 288),
])
def test_every_check_holds_on_every_maximum_state(graph, states, audits):
    # The paper's claims are about any rainbow (d - 1)-matching of a graph
    # with no rainbow d-matching, not only the one the engine stops at.
    matchings = set()
    count = 0
    for matching, report in maximum_state_audits(graph):
        matchings.add(matching.edges)
        count += 1
        assert [c.name for c in report.checks] == list(CHECK_NAMES)
        failed = [c.name for c in report.checks if not c.holds]
        assert failed == [], (matching.edges, report.mono_color, failed)
    assert (len(matchings), count) == (states, audits)


def test_an_empty_mono_class_fails_only_the_order_inequality():
    # The state cannot arise from a stuck engine (the test above on stuck
    # audits), but audit_state accepts it; with a = 0 the structural bound
    # falls below d * n on every maximum state of the glued K4s.
    g = glued_k4s()
    states = list(rainbow_matchings(g, 2))
    assert len(states) == 27
    for edges in states:
        report = audit_state(g, Matching(edges), Matching(), 3)
        failed = [c.name for c in report.checks if not c.holds]
        assert failed == ["order-inequality"], (edges, failed)


# ----------------------------------------------------------- certification

def oracle_certify(delta):
    """Independent exact maximiser over the same admissible tuples.

    For fixed pair counts the bound is linear then concave-quadratic in the
    class size, so its integer maximum sits at an interval endpoint, at the
    activation point of the touched count, or beside the quadratic's apex;
    evaluating those candidates with exact fractions finds the true
    maximum of worst_n = bound / delta.
    """
    best = None
    for r in range(delta):
        for s in range(delta - r):
            if s >= 1 and r == 0:
                continue
            activation = Fraction(2 * (delta - 1) + (r + s), 2)
            apex = Fraction(3 * delta - 1, 2) - Fraction(3 * r + s, 4)
            feas_max = Fraction(2 * delta - 2) - Fraction(r + s, 2)
            candidates = {2}
            for x in (activation, apex, feas_max):
                candidates.add(math.floor(x))
                candidates.add(math.ceil(x))
            for a in candidates:
                if a < 2:
                    continue
                t = max(Fraction(0), Fraction(2 * (a - delta + 1) - (r + s), 2))
                if r + s + t > delta - 1:
                    continue
                rhs = (Fraction((3 * delta - 10 - r) * r
                                + 2 * (delta + 3) * (delta - 1))
                       + (a - 1) * (2 * delta - 2 - 2 * r - s)
                       - (a - 2) * t)
                value = Fraction(rhs, delta)
                if best is None or value > best:
                    best = value
    return best


def oracle_certify_full(delta):
    """Slow dense grid scanning every class size; validates the grid above
    and the certificate field by field.

    Returns ``(worst_n, worst_tuple, admissible)``: the maximum of
    bound / delta, its first maximiser ``(r, s, a, t)`` in (r, s, a) order
    and the number of admissible tuples.
    """
    best = None
    best_tuple = None
    admissible = 0
    for r in range(delta):
        for s in range(delta - r):
            if s >= 1 and r == 0:
                continue
            for a in range(2, 6 * delta + 1):
                t = max(Fraction(0), Fraction(2 * (a - delta + 1) - (r + s), 2))
                if r + s + t > delta - 1:
                    continue
                admissible += 1
                rhs = (Fraction((3 * delta - 10 - r) * r
                                + 2 * (delta + 3) * (delta - 1))
                       + (a - 1) * (2 * delta - 2 - 2 * r - s)
                       - (a - 2) * t)
                value = Fraction(rhs, delta)
                if best is None or value > best:
                    best = value
                    best_tuple = (r, s, a, t)
    return best, best_tuple, admissible


def oracle_cert_result(delta):
    """The :class:`CertResult` the dense grid predicts."""
    worst_n, worst_tuple, admissible = oracle_certify_full(delta)
    threshold = Fraction(9 * delta - 5, 2)
    return CertResult(delta=delta, holds=worst_n < threshold,
                      worst_tuple=worst_tuple, worst_n=worst_n,
                      margin=threshold - worst_n, tuples_checked=admissible)


def test_oracle_grid_matches_full_scan_for_small_delta():
    for delta in range(2, 13):
        assert oracle_certify(delta) == oracle_certify_full(delta)[0]


def test_certify_matches_oracle():
    for delta in (2, 3, 4, 5, 8, 12, 20, 50):
        res = certify_counting_bound(delta)
        assert res.worst_n == oracle_certify(delta), f"delta={delta}"
        assert res.holds
        assert res.margin == Fraction(9 * delta - 5, 2) - res.worst_n
        assert res.margin > 0
    # Every field, tie-break and tuple count included, against the dense
    # grid.
    for delta in range(2, 13):
        assert certify_counting_bound(delta) == oracle_cert_result(delta), \
            f"delta={delta}"


def const_printed(delta, r):
    """The a-free part C of the order bound in its printed closed form, kept
    here so that the oracles below do not read the package's formula."""
    return (3 * delta - 10 - r) * r + 2 * (delta + 3) * (delta - 1)


def oracle_sweep(delta):
    """The O(delta^2) certificate that walked every (r, s) pair, kept
    verbatim as an oracle for the s = 0 maximisation."""
    if delta < 2:
        raise ValueError("delta must be at least 2")
    best_val: int | None = None
    best_pos: tuple[int, int, int, int] | None = None  # (r, s, a, 2t)
    checked = 0
    for r in range(delta):
        const = const_printed(delta, r)
        for s in range(delta - r if r else 1):
            p = r + s
            hi = (4 * delta - 4 - p) // 2
            if hi < 2:
                continue
            checked += hi - 1
            b = 2 * delta - 2 - 2 * r - s
            flat_end = (2 * delta - 2 + p) // 2   # last a with t = 0
            if flat_end >= hi:   # t stays 0 on the whole range
                candidates = (2 if b == 0 else hi,)
            else:
                # Quadratic piece flat_end+1..hi: the floor of the apex and
                # the integer after it, clipped to the piece.
                apex = (2 * b + 2 * delta + 2 + p) // 4
                if apex > flat_end:
                    quad = (apex, apex + 1) if apex < hi else (hi,)
                else:
                    quad = (flat_end + 1,)
                if flat_end < 2:
                    candidates = quad
                else:
                    candidates = (2 if b == 0 else flat_end,) + quad
            for a in candidates:
                t2 = 2 * (a - delta + 1) - p
                if t2 < 0:
                    t2 = 0
                val = 2 * const + 2 * (a - 1) * b - (a - 2) * t2
                if best_val is None or val > best_val:
                    best_val = val
                    best_pos = (r, s, a, t2)
    assert best_val is not None and best_pos is not None
    worst_n = Fraction(best_val, 2 * delta)
    threshold = Fraction(9 * delta - 5, 2)
    worst_tuple = (best_pos[0], best_pos[1], best_pos[2], Fraction(best_pos[3], 2))
    return CertResult(
        delta=delta,
        holds=best_val < delta * (9 * delta - 5),
        worst_tuple=worst_tuple,
        worst_n=worst_n,
        margin=threshold - worst_n,
        tuples_checked=checked,
    )


def test_certify_matches_the_pair_sweep():
    # Every field.
    for delta in range(2, 121):
        assert certify_counting_bound(delta) == oracle_sweep(delta), \
            f"delta={delta}"


def oracle_r_sweep(delta):
    """The O(delta) certificate that maximised over the class sizes at
    every good-pair count, kept verbatim as an oracle for the search
    around the relaxation's peak."""
    if delta < 2:
        raise ValueError("delta must be at least 2")
    best_val: int | None = None
    best_pos: tuple[int, int, int] | None = None  # (r, a, 2t) at s = 0
    checked = 0
    for r in range(delta):
        const = const_printed(delta, r)
        # s = 0, so p = r; max(p, 1) pairs (r', s') share this p and hi.
        hi = (4 * delta - 4 - r) // 2
        if hi < 2:
            continue
        checked += max(r, 1) * (hi - 1)
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
        for a in candidates:
            t2 = 2 * (a - delta + 1) - r
            if t2 < 0:
                t2 = 0
            val = 2 * const + 2 * (a - 1) * b - (a - 2) * t2
            if best_val is None or val > best_val:
                best_val = val
                best_pos = (r, a, t2)
    assert best_val is not None and best_pos is not None
    worst_n = Fraction(best_val, 2 * delta)
    threshold = Fraction(9 * delta - 5, 2)
    r, a, t2 = best_pos
    return CertResult(
        delta=delta,
        holds=best_val < delta * (9 * delta - 5),
        worst_tuple=(r, 0, a, Fraction(t2, 2)),
        worst_n=worst_n,
        margin=threshold - worst_n,
        tuples_checked=checked,
    )


def test_certify_matches_the_r_sweep():
    # Every field, so the search around the relaxation's peak finds the
    # same first maximiser and the closed form the same tuple count.
    for delta in [*range(2, 601), 10**4, 10**5]:
        assert certify_counting_bound(delta) == oracle_r_sweep(delta), \
            f"delta={delta}"


def test_relaxation_is_a_concave_upper_bound():
    # 8 * U(r) is at least eight times the exact per-r maximum, its second
    # differences are not positive, and the closed-form tuple count is the
    # per-r sum.
    for delta in range(2, 301):
        relaxed = [_relaxation(delta, r) for r in range(delta)]
        for r in range(1, delta - 1):
            assert relaxed[r - 1] - 2 * relaxed[r] + relaxed[r + 1] <= 0, \
                f"delta={delta} r={r}"
        count = 0
        for r in range(delta):
            count += max(r, 1) * max(0, (4 * delta - 4 - r) // 2 - 1)
            found = _best_at(delta, r)
            assert found is None or relaxed[r] >= 8 * found[0], \
                f"delta={delta} r={r}"
        assert _tuple_count(delta) == count, f"delta={delta}"


def relaxation_from_c_and_b(delta, r):
    """8 * U(r) derived from C and B.  With K = 2*delta - 2 + r, up to the
    split 5r = 2*delta + 2 the apex of q lies past K/2 and
    8U = 16C - 16B - 16K + (2B + K + 4)^2; past it U = q(r, K/2)."""
    c = const_printed(delta, r)
    b = 2 * delta - 2 - 2 * r
    if 5 * r <= 2 * delta + 2:
        k = 2 * delta - 2 + r
        return 16 * (c - b - k) + (2 * b + k + 4) ** 2
    return 8 * (2 * c + (2 * delta - 4 + r) * b)


def test_relaxation_closed_forms():
    # Each piece of _relaxation's closed forms and of the derivation from
    # C and B has degree <= 2 in delta and in r, so agreeing on a 3x3 grid
    # inside the piece proves the identity; every r at delta = 2..399 pins
    # the split.
    for delta in (20, 30, 40):
        for r in (0, 1, 2):
            assert 5 * r <= 2 * delta + 2
            assert _relaxation(delta, r) == relaxation_from_c_and_b(delta, r)
    for delta in (30, 40, 50):
        for r in (25, 26, 27):
            assert 5 * r > 2 * delta + 2
            assert _relaxation(delta, r) == relaxation_from_c_and_b(delta, r)
    for delta in range(2, 400):
        for r in range(delta):
            assert _relaxation(delta, r) == relaxation_from_c_and_b(delta, r), \
                f"delta={delta} r={r}"


def test_certify_walk_is_sound_from_every_start():
    # Concavity of U alone makes the walk exact, whatever its start.
    for delta in range(2, 81):
        expected = certify_counting_bound(delta)
        for start in range(delta):
            assert _certify_from(delta, start) == expected, \
                f"delta={delta} start={start}"


def test_certify_evaluates_few_counts(monkeypatch):
    # Started at the apex of U's peak piece, the walk evaluates at most
    # three U values and two per-r maxima: O(1) work per delta.
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(auditor, name, wrapper)

    counted("_relaxation", _relaxation)
    counted("_best_at", _best_at)
    for delta in [*range(2, 3001), 10**4, 10**5]:
        calls.update(_relaxation=0, _best_at=0)
        certify_counting_bound(delta)
        assert calls["_relaxation"] <= 3 and calls["_best_at"] <= 2, \
            f"delta={delta} calls={calls}"


def test_certify_walk_starts_at_the_peak_apex(monkeypatch):
    # The start is the floor of the apex of the piece of U that holds its
    # peak, clipped to 0..delta-1; the piece is chosen with exact
    # comparisons against the split 5r = 2*delta + 2.  Mutants this cannot
    # catch give the same start (or the same U) for every delta: the
    # boundary delta <= 21 moved to 20 or 22, since A's and B's apex floors
    # agree at delta = 21 and 22, and _relaxation's split moved to
    # 5r <= 2*delta + 1, since A = B at 5r = 2*delta + 2.
    starts = []
    monkeypatch.setattr(auditor, "_certify_from",
                        lambda delta, start: starts.append(start))
    for delta in range(2, 3001):
        certify_counting_bound(delta)
        split = 2 * delta + 2
        a_apex = Fraction(6 * delta - 66, 7)
        b_apex = Fraction(2 * delta - 7, 4)
        on_a, on_b = 5 * a_apex <= split, 5 * b_apex > split
        assert on_a != on_b, f"delta={delta}"
        apex = a_apex if on_a else b_apex
        assert starts.pop() == min(max(math.floor(apex), 0), delta - 1), \
            f"delta={delta}"


def test_relaxation_bounds_every_class_size():
    # The same bound against the dense grid, with no per-r shortcut.
    for delta in range(2, 31):
        for r in range(delta):
            relaxed = _relaxation(delta, r)
            for a in range(2, 6 * delta + 1):
                value = doubled_bound(delta, r, 0, a)
                assert value is None or relaxed >= 8 * value, \
                    f"delta={delta} r={r} a={a}"


def doubled_bound(delta, r, s, a):
    """Twice the order bound times delta at (r, s, a) with the least
    touched count, or None when the tuple is not admissible."""
    t2 = max(0, 2 * (a - delta + 1) - (r + s))
    if 2 * (r + s) + t2 > 2 * (delta - 1):
        return None
    return (2 * const_printed(delta, r)
            + 2 * (a - 1) * (2 * delta - 2 - 2 * r - s) - (a - 2) * t2)


def test_each_nice_pair_strictly_lowers_the_bound():
    # The domination that lets the certificate evaluate s = 0 only: an
    # admissible (r, s, a) with s >= 1 has an admissible (r, s - 1, a)
    # that scores strictly higher.  No admissible tuple has a class size
    # above 2*delta - 2, so the window up to 6*delta holds them all.  The
    # grid's admissible tuples are also counted, against the certificate's
    # closed-form count.
    for delta in range(2, 26):
        admissible = 0
        for r in range(delta):
            for s in range(delta - r if r else 1):
                for a in range(2, 6 * delta + 1):
                    value = doubled_bound(delta, r, s, a)
                    if value is None:
                        continue
                    admissible += 1
                    assert a <= 2 * delta - 2, f"delta={delta} (r, s, a)=({r}, {s}, {a})"
                    if s:
                        above = doubled_bound(delta, r, s - 1, a)
                        assert above is not None and value < above, \
                            f"delta={delta} (r, s, a)=({r}, {s}, {a})"
        assert admissible == certify_counting_bound(delta).tuples_checked


def const_counts(delta, r, s):
    """C re-derived from the nice-edge count (cap minus the counted lower
    bound), before simplification; it does not depend on s."""
    return ((3 * delta - 9 + s) * r + 6 * (delta - 1)
            + 2 * delta * (delta - 1) - (r + s + 1) * r)


def test_constant_forms_agree_on_a_grid():
    # The package's one order bound against the same bound built on C from
    # the nice-edge count.  Both have degree <= 2 in each of delta, r, s, a
    # and t2, so agreement on three distinct values per variable proves the
    # identity.
    for delta in (2, 7, 50):
        for r in (0, 1, 5):
            for s in (0, 3, 9):
                b = 2 * delta - 2 - 2 * r - s
                for a in (0, 2, 11):
                    for t2 in (0, 1, 6):
                        assert _doubled_order_bound(delta, r, s, a, t2) == (
                            2 * const_counts(delta, r, s) + 2 * (a - 1) * b
                            - (a - 2) * t2)


def test_certify_delta_two_exactly():
    res = certify_counting_bound(2)
    assert res.worst_n == 6
    assert res.margin == Fraction(1, 2)
    assert res.worst_tuple == (0, 0, 2, Fraction(1))
    assert res.tuples_checked == 1


def test_certify_delta_five_below_twenty():
    res = certify_counting_bound(5)
    assert res.holds and res.worst_n < 20
    # the apex branch dominates here: (17*5 - 6)/4 - 7/(4*5)
    assert res.worst_n == Fraction(97, 5)


def test_certify_large_delta_boundary_quadratic():
    # At delta=200 the touched count stays at zero and the maximum sits on
    # the activation boundary: r=98 gives (-2r^2 + 393r + 159598) / 200.
    res = certify_counting_bound(200)
    assert res.worst_n == Fraction(178904, 200) == Fraction(22363, 25)
    assert res.worst_tuple == (98, 0, 248, Fraction(0))
    assert res.tuples_checked == 6_572_347
    assert res.holds


def test_certify_margin_at_least_three_minus_33_over_8d():
    # For d >= 22 the peak of the relaxation lies on the piece past the
    # split, where T - B at B's apex is 48d - 66: margin >= 3 - 33/(8d).
    # The slack shrinks with d, to 1/4800 at d = 600.
    for delta in range(22, 601):
        assert certify_counting_bound(delta).margin >= 3 - Fraction(33, 8 * delta), delta
    assert certify_counting_bound(22).margin == Fraction(31, 11)


def test_certify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        certify_counting_bound(1)


@pytest.mark.parametrize("delta", [5.0, 5.5, True, "5"])
def test_certify_rejects_a_non_integer_delta(delta):
    with pytest.raises(ValueError) as exc:
        certify_counting_bound(delta)
    assert repr(delta) in str(exc.value)


# ------------------------------------------------------------- chain order

# n*(d) for d = 2..20, the order from which the chain proves the theorem.
CHAIN_ORDERS = (7, 11, 16, 20, 24, 29, 33, 37, 41, 46, 50, 54, 59, 63, 67,
                72, 76, 81, 85)


def test_chain_order_known_values():
    assert tuple(chain_order(d) for d in range(2, 21)) == CHAIN_ORDERS
    for d in range(2, 21):
        worst_n = certify_counting_bound(d).worst_n
        assert chain_order(d) - 1 <= worst_n < chain_order(d)


def test_chain_order_sits_below_the_paper_order_and_steps_by_three():
    # n*(d) is at most bound_n(d), and at least 2 below it from d = 22 on.
    # A degree-cap step by induction on d needs n*(d) - 1 >= n*(d - 1):
    # it holds with at least 3 to spare.
    orders = {d: chain_order(d) for d in range(2, 5001)}
    for d, n in orders.items():
        assert n <= bound_n(d), d
        if d >= 22:
            assert n <= bound_n(d) - 2, d
        if d >= 3:
            assert n - 1 - orders[d - 1] >= 3, d


@pytest.mark.parametrize("delta", [1, 0, -4, 2.0, True])
def test_chain_order_rejects_what_certify_rejects(delta):
    with pytest.raises(ValueError):
        certify_counting_bound(delta)
    with pytest.raises(ValueError):
        chain_order(delta)
