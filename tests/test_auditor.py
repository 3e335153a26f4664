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
    build_graph,
    certify_counting_bound,
    color_classes,
    greedy_proper_coloring,
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
    _relaxation,
    _tuple_count,
    const_printed,
)

from conftest import k33_cyclic, k4_one_factorization, pendant_star, random_instance


CHECK_NAMES = (
    "matching-maximality", "good-pair-dichotomy", "good-nice-inclusion",
    "nice-separation", "nice-pair-dichotomy", "touched-count-bounds",
    "degree-cap", "good-color-absence", "nice-color-absence",
    "nice-edge-cap", "mono-color-multiplicity", "order-inequality",
    "pair-count-slack",
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
    assert len(report.checks) == 13


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
    with pytest.raises(UnknownEdge):
        audit_state(g, matching, Matching([(0, 3, 9)]))


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
    # four audit stages were folded into one pass.  Every check but
    # good-nice-inclusion (good edges are nice by construction) fails
    # somewhere in the corpus, and good and nice pairs both occur.
    digest = hashlib.sha256()
    failed = dict.fromkeys(CHECK_NAMES, 0)
    good = nice = 0
    for g, matching, mono in audit_corpus():
        report = audit_state(g, matching, mono)
        digest.update(json.dumps(to_json(report), sort_keys=True).encode())
        assert [c.name for c in report.checks] == list(CHECK_NAMES)
        for c in report.checks:
            failed[c.name] += not c.holds
        good += report.good_pair_count > 0
        nice += report.nice_pair_count > 0
    assert digest.hexdigest() == \
        "f19bb8b08b9af766ffd73969b92045bdb30d6dfb3b700b19e68af87edf071d72"
    assert failed.pop("good-nice-inclusion") == 0
    assert min(failed.values()) > 0, failed
    assert good > 0 and nice > 0


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


def relaxation_a(delta, r):
    """8 * U(r) up to the split 5r = 2*delta + 2; apex (6*delta - 66)/7."""
    return -7 * r * r + (12 * delta - 132) * r + 68 * delta * delta - 24 * delta - 28


def relaxation_b(delta, r):
    """8 * U(r) past the split; apex (2*delta - 7)/4."""
    return -32 * r * r + (32 * delta - 112) * r + 64 * delta * delta - 32 * delta - 32


def test_relaxation_closed_forms():
    # Each piece of _relaxation and its closed form have degree <= 2 in
    # delta and in r, so agreeing on a 3x3 grid inside the piece proves
    # the identity; every r at delta = 2..399 pins the split.
    for delta in (20, 30, 40):
        for r in (0, 1, 2):
            assert 5 * r <= 2 * delta + 2
            assert _relaxation(delta, r) == relaxation_a(delta, r)
    for delta in (30, 40, 50):
        for r in (25, 26, 27):
            assert 5 * r > 2 * delta + 2
            assert _relaxation(delta, r) == relaxation_b(delta, r)
    for delta in range(2, 400):
        for r in range(delta):
            form = relaxation_a if 5 * r <= 2 * delta + 2 else relaxation_b
            assert _relaxation(delta, r) == form(delta, r), f"delta={delta} r={r}"


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
    return (2 * ((3 * delta - 10 - r) * r + 2 * (delta + 3) * (delta - 1))
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
    # Both forms have degree <= 2 in each of delta, r and s, so agreement
    # on three distinct values per variable proves the identity.
    for delta in (2, 7, 50):
        for r in (0, 1, 5):
            for s in (0, 3, 9):
                assert const_printed(delta, r) == const_counts(delta, r, s)


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
