import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    BudgetExceeded,
    Matching,
    SearchEvent,
    bound_n,
    build_graph,
    count_rainbow_matchings,
    count_transversals,
    cyclic_square,
    greedy_proper_coloring,
    is_rainbow_matching,
    latin_to_graph,
    max_rainbow_matching,
    rainbow_matching_at_least,
    random_graph_min_degree,
    random_latin,
    solve_decision,
)

from conftest import (
    brute_count_rainbow,
    brute_max_matching,
    brute_max_rainbow,
    c4,
    cyclic_knn,
    k33_cyclic,
    k4_one_factorization,
    random_instance,
    reference_count_walk,
)
from test_graphs import proper_graphs


# ------------------------------------------------------------ known values

def test_k4_optimum_is_one():
    res = max_rainbow_matching(k4_one_factorization())
    assert res.size == 1
    assert res.optimal
    assert is_rainbow_matching(k4_one_factorization(), res.best)


def test_c4_optima_depend_on_colouring():
    assert max_rainbow_matching(c4((1, 2, 1, 2))).size == 1
    assert max_rainbow_matching(c4((1, 2, 3, 2))).size == 2


def test_k33_cyclic_has_perfect_rainbow_matching():
    res = max_rainbow_matching(k33_cyclic())
    assert res.size == 3
    assert res.best.vertices == frozenset(range(6))


def test_result_matching_is_valid():
    g = k33_cyclic()
    res = max_rainbow_matching(g)
    assert is_rainbow_matching(g, res.best)
    assert res.best.has_distinct_colors() and res.best.is_vertex_disjoint()


# ----------------------------------------------------------- decision form

def test_at_least_zero_returns_empty():
    found = rainbow_matching_at_least(k4_one_factorization(), 0)
    assert found is not None and len(found) == 0


def test_at_least_two_on_k4_is_absent():
    assert rainbow_matching_at_least(k4_one_factorization(), 2) is None


def test_at_least_three_on_k33():
    found = rainbow_matching_at_least(k33_cyclic(), 3)
    assert found is not None and len(found) == 3


def test_solve_decision_reports_resolution():
    res = solve_decision(k33_cyclic(), 3)
    assert res.size >= 3 and res.optimal
    res = solve_decision(k4_one_factorization(), 2)
    assert res.size == 1 and res.optimal  # resolved negative


def test_solve_decision_nonpositive_target():
    res = solve_decision(k4_one_factorization(), 0)
    assert res.size == 0 and res.optimal and res.nodes_explored == 0


# ------------------------------------------------------------------ budget

def test_budget_hit_reports_not_optimal():
    g = k33_cyclic()
    res = max_rainbow_matching(g, node_budget=2)
    assert not res.optimal
    assert res.size <= 3
    assert is_rainbow_matching(g, res.best)


def test_at_least_raises_when_budget_blocks_resolution():
    with pytest.raises(BudgetExceeded):
        rainbow_matching_at_least(k33_cyclic(), 3, node_budget=1)


def test_a_budget_stop_leaves_a_decide_solve_below_its_target():
    # A decide walk returns at its first witness, before any budget stop,
    # so a decide result is optimal exactly when no budget stopped it, as
    # a max result is.  k runs one past the optimum, so some walks exhaust.
    stops = witnesses = exhausted = 0
    for seed in range(30):
        g = random_instance(seed)
        for k in range(1, max_rainbow_matching(g).size + 2):
            full = solve_decision(g, k).nodes_explored
            for budget in range(full + 1):
                res = solve_decision(g, k, budget)
                if res.trace and res.trace[-1].event == "budget":
                    assert res.size < k and not res.optimal
                    stops += 1
                else:
                    assert res.optimal
                    witnesses += res.size >= k
                    exhausted += res.size < k
    assert stops > 0 and witnesses > 0 and exhausted > 0


def test_budget_respected():
    res = max_rainbow_matching(k33_cyclic(), node_budget=5)
    assert res.nodes_explored <= 5


def test_budgeted_max_ends_with_a_budget_event():
    g = random_instance(9)
    for budget in (0, 1, 10, 19):
        res = max_rainbow_matching(g, node_budget=budget)
        assert not res.optimal
        assert res.nodes_explored == budget
        assert res.trace[-1] == SearchEvent("budget", res.trace[-1].size, budget)
        assert all(e.event == "incumbent" for e in res.trace[:-1])
    assert max_rainbow_matching(g, node_budget=20).optimal


def test_published_traces_hold_search_events():
    # The walk keeps its milestones as plain tuples; the published trace of
    # a max solve and of a budget-stopped decide holds SearchEvents only.
    g = cyclic_knn(6)
    res = max_rainbow_matching(g)
    assert res.trace and all(type(e) is SearchEvent for e in res.trace)
    assert [e.event for e in res.trace] == ["incumbent"] * len(res.trace)
    stopped = solve_decision(g, 6, node_budget=10)
    assert not stopped.optimal and stopped.size < 6
    assert stopped.trace[-1] == SearchEvent("budget", stopped.trace[-1].size, 10)
    assert all(type(e) is SearchEvent for e in stopped.trace)


def test_negative_budget_raises_and_zero_is_legal():
    g = k33_cyclic()
    for walk in (lambda b: max_rainbow_matching(g, node_budget=b),
                 lambda b: solve_decision(g, 3, b),
                 lambda b: count_rainbow_matchings(g, 3, node_budget=b),
                 lambda b: count_rainbow_matchings(g, 0, node_budget=b)):
        with pytest.raises(ValueError, match="node budget must be at least 0, got -3"):
            walk(-3)
    assert max_rainbow_matching(g, node_budget=0).nodes_explored == 0
    assert count_rainbow_matchings(g, 0, node_budget=0) == 1
    with pytest.raises(BudgetExceeded):
        count_rainbow_matchings(g, 3, node_budget=0)


def test_budgeted_count_raises():
    g = cyclic_knn(6)
    with pytest.raises(BudgetExceeded):
        count_rainbow_matchings(g, 6, node_budget=100)
    assert count_rainbow_matchings(g, 5, node_budget=10 ** 6) > 0


# ----------------------------------------------------------------- counting

def test_count_size_zero_is_one():
    assert count_rainbow_matchings(k4_one_factorization(), 0) == 1


def test_count_on_k4():
    g = k4_one_factorization()
    assert count_rainbow_matchings(g, 1) == 6
    assert count_rainbow_matchings(g, 2) == 0


def test_count_perfect_on_k33_matches_transversals():
    assert count_rainbow_matchings(k33_cyclic(), 3) == 3


def test_count_budget_boundary_is_exact():
    # Each counting tree's node total: the counter passes when the tree
    # holds exactly node_budget nodes, and raises one node short.  Merged
    # states carry their number of tree nodes, so the totals still pin the
    # tree itself: a change to the branching, the cuts, the in-place count
    # of last edges or the merging that altered it shows here.
    cases = [
        (cyclic_knn(5), 5, 15, 61),
        (cyclic_knn(6), 6, 0, 223),
        # Size 4 on K7,7 leaves room for skip branches at every level.
        (cyclic_knn(7), 4, 8869, 19558),
        (latin_to_graph(random_latin(8, 1)), 8, 58, 3784),
        (greedy_proper_coloring(random_graph_min_degree(11, 4, 2), 2), 4, 1259, 2089),
    ]
    for g, size, count, nodes in cases:
        assert reference_count_walk(g, size) == (count, nodes)
        assert count_rainbow_matchings(g, size, node_budget=nodes) == count
        with pytest.raises(BudgetExceeded):
            count_rainbow_matchings(g, size, node_budget=nodes - 1)
    # The same on every size of small seeded graphs, whose totals the
    # reference walk gives and whose counts the subset scan checks.
    checked = 0
    for seed in range(300):
        g = random_instance(seed)
        for size in range(1, g.n // 2 + 1):
            count, nodes = reference_count_walk(g, size)
            assert count == brute_count_rainbow(g, size), (seed, size)
            assert count_rainbow_matchings(g, size, node_budget=nodes) == count
            with pytest.raises(BudgetExceeded):
                count_rainbow_matchings(g, size, node_budget=nodes - 1)
            checked += 1
    assert checked == 742


def test_count_on_a_graph_too_small_for_the_size_is_one_node():
    # With fewer than 2 * size vertices the root is cut at once, so the
    # tree is that one node and nothing is indexed below it.
    cases = [(build_graph(0, []), 1), (build_graph(1, []), 1),
             (build_graph(2, [(0, 1, 1)]), 2), (k4_one_factorization(), 3),
             (cyclic_knn(3), 4), (cyclic_knn(7), 8)]
    for g, size in cases:
        assert reference_count_walk(g, size) == (0, 1)
        assert count_rainbow_matchings(g, size) == 0
        assert count_rainbow_matchings(g, size, node_budget=1) == 0
        with pytest.raises(BudgetExceeded):
            count_rainbow_matchings(g, size, node_budget=0)


@pytest.mark.parametrize("square", [cyclic_square(7), random_latin(7, 3)],
                         ids=["cyclic7", "random7"])
def test_count_latin_encodings_at_every_size(square):
    # Merging saves the most at the middle sizes of a Latin encoding, where
    # many partial matchings use the same columns and symbols.
    g = latin_to_graph(square)
    for size in range(1, 8):
        count, nodes = reference_count_walk(g, size)
        assert count_rainbow_matchings(g, size, node_budget=nodes) == count
        with pytest.raises(BudgetExceeded):
            count_rainbow_matchings(g, size, node_budget=nodes - 1)
    assert count == count_transversals(square)


def test_count_on_a_graph_wider_than_a_machine_word():
    # 150 disjoint edges on 300 vertices, ten colours of 15 edges each:
    # every pair of distinct colours gives a size-2 rainbow matching.
    g = build_graph(300, [(2 * i, 2 * i + 1, i % 10 + 1) for i in range(150)])
    assert count_rainbow_matchings(g, 2) == 150 * 149 // 2 - 10 * (15 * 14 // 2)
    # The cyclic K5,5 on the top ten of 300 vertices, below 290 isolated
    # ones that must each be left unmatched.
    k55 = [(290 + i, 295 + j, (i + j) % 5 + 1) for i in range(5) for j in range(5)]
    assert count_rainbow_matchings(build_graph(300, k55), 5) == 15


# ------------------------------------------------------------- determinism

def test_identical_runs_identical_traces():
    g = random_instance(7)
    a = max_rainbow_matching(g)
    b = max_rainbow_matching(g)
    assert a.best == b.best and a.trace == b.trace and a.nodes_explored == b.nodes_explored


def test_max_trace_is_pinned():
    # Node count, trace and witness of the vertex-branching tree; any
    # change to the branching order or the bound moves them.
    res = max_rainbow_matching(random_instance(9))
    assert res.nodes_explored == 20
    assert [(e.event, e.size, e.node) for e in res.trace] == [
        ("incumbent", 1, 2), ("incumbent", 2, 3),
        ("incumbent", 3, 6), ("incumbent", 4, 16)]
    assert res.best == Matching([(0, 7, 5), (1, 3, 4), (2, 6, 1), (5, 8, 2)])


@pytest.mark.parametrize("n, nodes", [(6, 223), (8, 3_705)])
def test_even_cyclic_decide_node_counts_are_pinned(n, nodes):
    # The even cyclic K_{n,n} has no rainbow perfect matching, so the
    # decision search runs to exhaustion.
    res = solve_decision(cyclic_knn(n), n)
    assert res.optimal and res.size == n - 1
    assert res.nodes_explored == nodes


def test_colour_bound_cuts_when_colours_run_out():
    # Twelve disjoint edges in three colours: the unused colours prove the
    # optimum 3 at once, where half the free vertices alone would allow 12.
    g = build_graph(24, [(2 * i, 2 * i + 1, i % 3 + 1) for i in range(12)])
    res = max_rainbow_matching(g)
    assert res.size == 3 and res.optimal and res.nodes_explored == 7
    res = solve_decision(g, 4)
    assert res.size == 0 and res.optimal and res.nodes_explored == 1


def test_max_at_the_proven_order_for_d8_is_cheap():
    # n = bound_n(8) = 34: each optimum is a perfect matching of 17 edges.
    # The include/exclude search this core replaced took over 300,000
    # nodes on 9 of these 12 graphs.
    nodes = []
    for seed in range(12):
        g = greedy_proper_coloring(random_graph_min_degree(bound_n(8), 8, seed), seed)
        res = max_rainbow_matching(g, node_budget=100_000)
        assert res.optimal and res.size == 17
        assert is_rainbow_matching(g, res.best)
        nodes.append(res.nodes_explored)
    assert nodes[9] == 29_953


def test_deep_instance_runs_without_touching_the_recursion_limit():
    m = 3000
    g = build_graph(2 * m, [(2 * i, 2 * i + 1, i + 1) for i in range(m)])
    limit = sys.getrecursionlimit()
    res = max_rainbow_matching(g)
    assert res.size == m and res.optimal and is_rainbow_matching(g, res.best)
    assert count_rainbow_matchings(g, m) == 1
    assert sys.getrecursionlimit() == limit


def test_trace_incumbent_sizes_strictly_increase():
    res = max_rainbow_matching(k33_cyclic())
    sizes = [e.size for e in res.trace if e.event == "incumbent"]
    assert sizes == sorted(set(sizes))


# -------------------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(proper_graphs(max_n=7, max_m=11))
def test_oracle_equivalence(g):
    assert max_rainbow_matching(g).size == brute_max_rainbow(g)


@settings(max_examples=60, deadline=None)
@given(proper_graphs(max_n=7, max_m=10), st.integers(min_value=0, max_value=4))
def test_decision_agrees_with_oracle(g, k):
    found = rainbow_matching_at_least(g, k)
    exists = brute_max_rainbow(g) >= k
    assert (found is not None) == exists
    if found is not None:
        assert len(found) >= k and is_rainbow_matching(g, found)


@settings(max_examples=60, deadline=None)
@given(proper_graphs(max_n=7, max_m=10), st.integers(min_value=0, max_value=3))
def test_count_agrees_with_oracle(g, size):
    assert count_rainbow_matchings(g, size) == brute_count_rainbow(g, size)


@settings(max_examples=100, deadline=None)
@given(proper_graphs(max_n=9), st.integers(min_value=0, max_value=4))
def test_count_agrees_with_oracle_on_general_graphs(g, size):
    # Graphs with odd cycles, and sizes below a perfect matching, so that
    # the search must also leave vertices unmatched.
    assert count_rainbow_matchings(g, size) == brute_count_rainbow(g, size)


@settings(max_examples=60, deadline=None)
@given(proper_graphs(max_n=7, max_m=10))
def test_fresh_edge_never_decreases_optimum(g):
    before = max_rainbow_matching(g).size
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if not g.has_edge(u, v)]
    if not pairs:
        return
    u, v = pairs[0]
    fresh = max(g.colors, default=0) + 1
    bigger = build_graph(g.n, list(g.edges) + [(u, v, fresh)])
    assert max_rainbow_matching(bigger).size >= before


@settings(max_examples=60, deadline=None)
@given(proper_graphs(max_n=7, max_m=10), st.integers(min_value=0, max_value=6))
def test_vertex_deletion_bound(g, v):
    if g.n == 0:
        return
    v %= g.n
    whole = max_rainbow_matching(g).size
    reduced = max_rainbow_matching(g.without_vertex(v)).size
    assert whole - 1 <= reduced <= whole


@settings(max_examples=60, deadline=None)
@given(proper_graphs(max_n=7, max_m=10))
def test_max_matching_dominates_rainbow(g):
    assert brute_max_matching(g) >= max_rainbow_matching(g).size


@settings(max_examples=60, deadline=None)
@given(proper_graphs(max_n=7, max_m=10), st.integers(min_value=1, max_value=3))
def test_huge_colour_values_change_nothing(g, size):
    # Colours are arbitrary positive ints; the search must not index
    # anything by the raw value.
    big = build_graph(g.n, [(u, v, c * 10 ** 12 + 7) for u, v, c in g.edges])
    a, b = max_rainbow_matching(g), max_rainbow_matching(big)
    assert a.size == b.size
    assert a.nodes_explored == b.nodes_explored
    assert a.trace == b.trace
    assert count_rainbow_matchings(g, size) == count_rainbow_matchings(big, size)


@settings(max_examples=60, deadline=None)
@given(proper_graphs(max_n=8, max_m=12), st.randoms(use_true_random=False))
def test_relabelling_vertices_keeps_every_answer(g, rnd):
    # The branching order follows vertex ids; the answers must not.
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = build_graph(g.n, [(perm[u], perm[v], c) for u, v, c in g.edges])
    best = max_rainbow_matching(g).size
    assert max_rainbow_matching(h).size == best
    for k in range(best + 2):
        assert (rainbow_matching_at_least(h, k) is not None) == (k <= best)
