import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    BudgetExceeded,
    InvalidState,
    Matching,
    RuleStep,
    UnknownEdge,
    applicable_rules,
    audit_stuck_state,
    bound_n,
    build_graph,
    cyclic_square,
    greedy_proper_coloring,
    greedy_rainbow,
    is_rainbow_matching,
    latin_to_graph,
    max_rainbow_matching,
    random_graph_min_degree,
    replay_trace,
    rule_direct,
    rule_exchange,
    rule_mono,
    rule_vertex_reduce,
    run_engine,
    trace_to_json_lines,
)

from rainbowmatch.engine import _moves

from conftest import (
    brute_max_rainbow,
    c4,
    k33_cyclic,
    k4_one_factorization,
    pendant_star,
    random_instance,
)
from test_graphs import proper_graphs


# ------------------------------------------------------------------ greedy

def test_greedy_on_edgeless_graph_is_empty():
    assert len(greedy_rainbow(build_graph(3, []))) == 0


def test_greedy_on_path_takes_one_edge():
    g = build_graph(3, [(0, 1, 1), (1, 2, 2)])
    assert len(greedy_rainbow(g)) == 1


def test_greedy_on_mixed_c4_takes_two():
    m = greedy_rainbow(c4((1, 2, 3, 2)))
    assert m.edges == ((0, 1, 1), (2, 3, 3))


def test_greedy_is_maximal():
    g = k33_cyclic()
    m = greedy_rainbow(g)
    assert rule_direct(g, m) is None


# ------------------------------------------------------------- rule_direct

def test_direct_from_empty_matching():
    g = k4_one_factorization()
    out = rule_direct(g, Matching())
    assert out is not None and len(out) == 1


def test_direct_absent_on_two_coloured_c4():
    g = c4((1, 2, 1, 2))
    out = rule_direct(g, Matching([(0, 1, 1)]))
    assert out is None


def test_direct_extends_on_k33():
    g = k33_cyclic()
    out = rule_direct(g, Matching([(0, 3, 1)]))
    assert out is not None and len(out) == 2
    assert is_rainbow_matching(g, out)


# ----------------------------------------------------------- rule_exchange

def test_exchange_improves_single_edge_on_c4():
    g = c4((1, 2, 3, 2))
    out = rule_exchange(g, Matching([(1, 2, 2)]), 1)
    assert out is not None
    assert out.edges == ((0, 1, 1), (2, 3, 3))


def test_exchange_rejects_a_matched_edge_absent_from_the_graph():
    g = build_graph(4, [(0, 1, 1), (2, 3, 2), (1, 2, 3)])
    for edge in [(0, 3, 1), (0, 1, 2)]:
        with pytest.raises(UnknownEdge):
            rule_exchange(g, Matching([edge]))
    # Direct and mono share the exchange's membership check: without it,
    # each would grow a matching built on an edge the graph lacks.
    # A colour that only equals the edge's colour names no edge either.
    for edge in [(0, 3, 1), (0, 1, 1.0), (0, 1, True)]:
        with pytest.raises(UnknownEdge):
            rule_direct(g, Matching([edge]))
    g = build_graph(6, [(0, 1, 1), (2, 3, 1), (0, 4, 2), (3, 5, 7)])
    with pytest.raises(UnknownEdge):
        rule_mono(g, Matching([(0, 5, 1)]))


@pytest.mark.parametrize("matching", [
    pytest.param([(0, 1, 1), (1, 2, 2)], id="shared-vertex"),
    pytest.param([(0, 1, 1), (3, 4, 1)], id="shared-colour")])
def test_exchange_rejects_matched_edges_that_meet(matching):
    # The kept edges' masks are the matched edges' union with the removed
    # edges XORed out, which is exact only for a rainbow matching.
    g = build_graph(6, [(0, 1, 1), (1, 2, 2), (3, 4, 1), (4, 5, 3)])
    for depth in (0, 1, 3):
        with pytest.raises(InvalidState, match="share no vertex and no colour"):
            rule_exchange(g, Matching(matching), depth)


@pytest.mark.parametrize("matching", [
    pytest.param([(0, 1, 1), (1, 2, 2)], id="shared-vertex"),
    pytest.param([(0, 1, 1), (3, 4, 1)], id="shared-colour")])
def test_every_rule_rejects_matched_edges_that_meet(matching):
    # Without the check, direct grows the shared-vertex pair by (4, 5, 3)
    # into an edge set that is no matching.  applicable_rules asks direct
    # first, so it raises at depth 0 as at depth 1.
    g = build_graph(6, [(0, 1, 1), (1, 2, 2), (3, 4, 1), (4, 5, 3)])
    for rule in (rule_direct, rule_mono):
        with pytest.raises(InvalidState, match="share no vertex and no colour"):
            rule(g, Matching(matching))
    for depth in (0, 1):
        with pytest.raises(InvalidState, match="share no vertex and no colour"):
            applicable_rules(g, Matching(matching), None, depth)


@pytest.mark.parametrize("n, nodes", [
    (8, 346), (10, 687), (12, 1159), (14, 1872), (16, 2790)])
def test_exchange_node_totals_on_even_cyclic_squares(n, nodes):
    # An even cyclic square has no transversal, and the greedy seed already
    # holds n - 1 edges, so every removal subset to depth 3 is searched to
    # exhaustion and the trace is the seed alone.
    res = run_engine(latin_to_graph(cyclic_square(n)), n)
    assert (res.size, res.nodes_explored, len(res.trace)) == (n - 1, nodes, 1)


def test_exchange_absent_at_optimum_on_k4():
    g = k4_one_factorization()
    best = max_rainbow_matching(g).best
    for depth in (1, 2, 3):
        assert rule_exchange(g, best, depth) is None


def test_exchange_depth_one_fires_on_three_vs_one_good_edges():
    # One matched pair; three fresh pendant edges at one endpoint and one
    # at the other force a one-for-two swap.
    g = pendant_star()
    out = rule_exchange(g, Matching([(0, 1, 1)]), 1)
    assert out is not None and len(out) == 2
    assert is_rainbow_matching(g, out)


@settings(max_examples=40, deadline=None)
@given(proper_graphs(max_n=7, max_m=10), st.integers(min_value=1, max_value=3))
def test_exchange_output_is_larger_rainbow_matching(g, depth):
    m = greedy_rainbow(g)
    out = rule_exchange(g, m, depth)
    if out is not None:
        assert is_rainbow_matching(g, out)
        assert len(out) == len(m) + 1


@settings(max_examples=40, deadline=None)
@given(proper_graphs(max_n=6, max_m=9))
def test_exchange_absent_from_maximum_matching(g):
    res = max_rainbow_matching(g)
    for depth in (1, 2, 3):
        assert rule_exchange(g, res.best, depth) is None


def _maximal_rainbow(g, order):
    used_v, used_c, chosen = set(), set(), []
    for u, v, c in (g.edges[i] for i in order):
        if u not in used_v and v not in used_v and c not in used_c:
            chosen.append((u, v, c))
            used_v |= {u, v}
            used_c.add(c)
    return Matching(chosen)


def _brute_exchange_exists(g, m, depth):
    # Some rainbow matching one larger than m that drops at most depth of
    # m's edges, by scanning every edge subset of that size.
    for subset in itertools.combinations(g.edges, len(m) + 1):
        other = Matching(subset)
        if (other.is_vertex_disjoint() and other.has_distinct_colors()
                and len(set(m.edges) - set(subset)) <= depth):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(proper_graphs(max_n=7, max_m=10), st.integers(min_value=1, max_value=3),
       st.randoms(use_true_random=False))
def test_exchange_fires_exactly_when_brute_force_finds_a_swap(g, depth, rnd):
    # From a maximal rainbow matching (the only kind the engine hands the
    # rule), any larger matching must drop at least one matched edge.
    order = list(range(len(g.edges)))
    rnd.shuffle(order)
    m = _maximal_rainbow(g, order)
    out = rule_exchange(g, m, depth)
    assert (out is not None) == _brute_exchange_exists(g, m, depth)
    if out is not None:
        assert is_rainbow_matching(g, out) and len(out) == len(m) + 1
        assert len(set(m.edges) - set(out.edges)) <= depth


# --------------------------------------------------------------- rule_mono

def test_mono_defining_pattern():
    # Matched edge colour 1, a free colour-1 edge, and a fresh pendant.
    g = build_graph(6, [(0, 1, 1), (2, 3, 1), (0, 4, 2)])
    out = rule_mono(g, Matching([(0, 1, 1)]))
    assert out is not None
    assert set(out.edges) == {(2, 3, 1), (0, 4, 2)}


def test_mono_absent_on_plain_path():
    g = build_graph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 1)])
    assert rule_mono(g, Matching([(0, 1, 1), (2, 3, 3)])) is None


def test_mono_needs_a_matched_edge():
    assert rule_mono(k4_one_factorization(), Matching()) is None


# -------------------------------------------------------- rule_vertex_reduce

def test_vertex_reduce_target_one():
    out = rule_vertex_reduce(k4_one_factorization(), 1)
    assert out is not None and len(out) == 1


def test_vertex_reduce_fires_inside_an_engine_run():
    # Vertex 0 has degree 7 > 3; greedy takes 01, every other edge meets 0
    # or 1, no other edge has colour 1, and depth 0 turns the exchange off.
    # The decide call finds 12 in the graph without 0, and 0 extends it.
    g = build_graph(8, [(0, i, i) for i in range(1, 8)] + [(1, 2, 8)])
    res = run_engine(g, 2, max_exchange_depth=0)
    assert [s.rule for s in res.trace] == ["R-seed", "R-vertex-reduce"]
    assert res.size == 2 and is_rainbow_matching(g, res.best)
    assert res.best == Matching([(0, 3, 3), (1, 2, 8)])
    assert replay_trace(res.trace) == res.best


def test_direct_fires_after_mono():
    # Greedy takes 01; no edge is free for direct, mono trades 01 for 23
    # of the same colour plus the pendant 04, and then 15 is free.
    g = build_graph(6, [(0, 1, 1), (2, 3, 1), (0, 4, 2), (1, 5, 3)])
    res = run_engine(g, 3)
    assert [(s.rule, s.removed, s.added, s.note) for s in res.trace] == [
        ("R-seed", (), ((0, 1, 1),), ""),
        ("R-mono", ((0, 1, 1),), ((0, 4, 2), (2, 3, 1)), ""),
        ("R-direct", (), ((1, 5, 3),), ""),
    ]
    assert res.best == Matching([(0, 4, 2), (1, 5, 3), (2, 3, 1)])


def test_vertex_reduce_budget_becomes_a_trace_note():
    # The graph of test_vertex_reduce_fires_inside_an_engine_run: at depth 0
    # no exchange runs, and the decide call for size 1 needs 3 nodes.
    g = build_graph(8, [(0, i, i) for i in range(1, 8)] + [(1, 2, 8)])
    res = run_engine(g, 2, max_exchange_depth=0, node_budget=2)
    assert res.size == 1
    assert res.trace[-1] == RuleStep(
        "R-vertex-reduce", (), (), "node budget 2 hit before deciding size 1")
    with pytest.raises(BudgetExceeded):
        audit_stuck_state(g, 2, 0, node_budget=2)
    assert run_engine(g, 2, max_exchange_depth=0, node_budget=3).size == 2


def test_negative_exchange_depth_raises():
    with pytest.raises(ValueError, match="exchange depth must be at least 0, got -1"):
        run_engine(k4_one_factorization(), 2, max_exchange_depth=-1)


def test_rule_exchange_rejects_negative_depth():
    # Depth 0 tries no exchange; a negative one is an error, as in run_engine.
    g = c4((1, 2, 3, 2))
    m = Matching([(1, 2, 2)])
    assert rule_exchange(g, m, 0) is None
    with pytest.raises(ValueError, match="exchange depth must be at least 0, got -1"):
        rule_exchange(g, m, -1)


def test_vertex_reduce_inapplicable_below_degree_cap():
    g = c4((1, 2, 3, 2))  # max degree 2 <= 3*(2-1)
    assert rule_vertex_reduce(g, 2) is None


def test_vertex_reduce_star_fails_cleanly():
    # K1,7 and K1,4, coloured 1..7 and 1..4: the centre's degree is above
    # 3, but without it no edge is left for the 1-matching, so the engine
    # stops at its seed.
    edges = [(0, i, i) for i in range(1, 8)]
    for star in (build_graph(8, edges), build_graph(5, edges[:4])):
        assert rule_vertex_reduce(star, 2) is None
        res = run_engine(star, 2)
        assert res.size == 1
        assert [s.rule for s in res.trace] == ["R-seed"]


def test_vertex_reduce_pivot_is_the_lowest_id_on_a_degree_tie():
    # Two disjoint stars of degree 4, both coloured 1..4.  Deleting 0 leaves
    # 56 for the 1-matching, and 0 then skips 01 for its colour; deleting 5
    # would give 01 and 57 instead.
    g = build_graph(10, [(0, i, i) for i in range(1, 5)]
                    + [(5, 5 + i, i) for i in range(1, 5)])
    assert rule_vertex_reduce(g, 2) == Matching([(0, 2, 2), (5, 6, 1)])


# --------------------------------------------------------- applicable_rules

def test_applicable_rules_lists_direct_and_vertex_reduce_on_k4():
    # Mono and the exchange need a matched edge; every vertex of K4 has
    # degree 3 > 0 = 3 * (1 - 1).
    assert applicable_rules(k4_one_factorization(), Matching()) == [
        "direct", "vertex-reduce"]


def test_applicable_rules_budget_messages():
    # The depth-1 exchange on the pendant star needs 6 core nodes, and the
    # decide call for size 1 below needs 3.
    with pytest.raises(BudgetExceeded, match="^node budget 5 hit in the exchange$"):
        applicable_rules(pendant_star(), Matching([(0, 1, 1)]), None, 1, 5)
    # The move list itself ends at the exchange's note, before vertex reduce.
    moves = list(_moves(pendant_star(), Matching([(0, 1, 1)]), 2, 1, 5, [0]))
    assert moves == [("R-direct", None, ""), ("R-mono", None, ""),
                     ("R-exchange-1", None, "node budget hit")]
    g = build_graph(8, [(0, i, i) for i in range(1, 8)] + [(1, 2, 8)])
    with pytest.raises(BudgetExceeded,
                       match="^node budget 2 hit before deciding size 1$"):
        applicable_rules(g, Matching([(0, 1, 1)]), None, 0, 2)


# ---------------------------------------------------------------- run_engine

def test_engine_reaches_optimum_on_mixed_c4():
    res = run_engine(c4((1, 2, 3, 2)), 2)
    assert res.size == 2


def test_engine_stuck_on_k4():
    res = run_engine(k4_one_factorization(), 2)
    assert res.size == 1
    assert [s.rule for s in res.trace] == ["R-seed"]
    assert not res.optimal


def test_engine_target_zero():
    res = run_engine(k4_one_factorization(), 0)
    assert res.size == 0
    assert len(res.trace) == 1 and res.trace[0].rule == "R-seed"
    assert res.trace[0].added == ()


def test_engine_reaches_three_on_k33():
    res = run_engine(k33_cyclic(), 3)
    assert res.size == 3


def test_engine_trace_replays_and_serialises():
    res = run_engine(k33_cyclic(), 3)
    assert replay_trace(res.trace) == res.best
    lines = trace_to_json_lines(res.trace)
    assert lines.count("\n") == len(res.trace)


def test_engine_deterministic():
    g = random_instance(123)
    a = run_engine(g, 3)
    b = run_engine(g, 3)
    assert a.best == b.best and a.trace == b.trace


def test_replay_rejects_corrupted_trace():
    res = run_engine(k33_cyclic(), 3)
    steps = list(res.trace)
    bad = steps + [steps[-1]] if steps[-1].added else steps
    if bad != steps:
        with pytest.raises(ValueError):
            replay_trace(bad)


def test_replay_rejects_removing_an_absent_edge():
    steps = [RuleStep("R-seed", (), ((0, 1, 1),)),
             RuleStep("R-mono", ((2, 3, 1),), ((2, 3, 1), (0, 4, 2)))]
    with pytest.raises(ValueError, match=r"trace removes absent edge \(2, 3, 1\)"):
        replay_trace(steps)


@settings(max_examples=60, deadline=None)
@given(proper_graphs(max_n=7, max_m=11), st.integers(min_value=0, max_value=4))
def test_engine_sound_and_dominated(g, target):
    res = run_engine(g, target)
    assert is_rainbow_matching(g, res.best)
    assert res.size <= brute_max_rainbow(g)
    assert replay_trace(res.trace) == res.best
    running = 0
    for step in res.trace:
        if step.rule == "R-seed":
            running = len(step.added)
        else:
            running += len(step.added) - len(step.removed)
            assert len(step.added) - len(step.removed) == 1
    assert running == res.size


# ------------------------------------------------------------------ budget

def test_exchange_node_budget_raises_before_the_witness():
    g, m = pendant_star(), Matching([(0, 1, 1)])
    with pytest.raises(BudgetExceeded):
        rule_exchange(g, m, 1, node_budget=5)
    assert len(rule_exchange(g, m, 1, node_budget=6)) == 2


def test_engine_node_budget_stops_the_exchange():
    g = pendant_star()
    res = run_engine(g, 2, node_budget=5)
    assert (res.size, res.nodes_explored) == (1, 5)
    last = res.trace[-1]
    assert (last.rule, last.note) == ("R-exchange-1", "node budget hit")
    assert last.added == last.removed == ()
    res = run_engine(g, 2, node_budget=6)
    assert (res.size, res.nodes_explored) == (2, 6)
    assert res.trace[-1].rule == "R-exchange-1" and not res.trace[-1].note


def test_engine_traces_are_pinned():
    # sha256 of every run's size, exchange node count and trace over 1,760
    # seeded graphs (d = 2..6, n = 2d..bound_n(d), seeds 0..39), taken
    # before the engine's exchange walk was merged into one loop.  The
    # corpus has 96 exchange fires and 37 mono fires.
    digest = hashlib.sha256()
    for d in range(2, 7):
        for n in range(2 * d, bound_n(d) + 1):
            for seed in range(40):
                g = greedy_proper_coloring(random_graph_min_degree(n, d, seed), seed)
                res = run_engine(g, d)
                digest.update(f"{res.size} {res.nodes_explored}\n".encode())
                digest.update(trace_to_json_lines(res.trace).encode())
    assert digest.hexdigest() == \
        "b0c7181b32ac83d0a5b1b9b8f521b039e861f117e30b83e7ab214496f3a1826d"
