import gc
import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    CampaignConfig,
    DuplicateEdge,
    EdgeColoredGraph,
    InfeasibleDegree,
    LoopEdge,
    OrderTooLarge,
    bound_n,
    color_classes,
    dumps_square,
    greedy_proper_coloring,
    min_degree,
    one_factorization,
    random_graph_min_degree,
    random_latin,
    run_campaign,
)
from rainbowmatch import generators
from rainbowmatch.generators import SimpleGraph, _sample, _shuffle

from conftest import (
    assert_packed_table,
    cells_csv,
    fresh_interpreter,
    independent_is_proper,
    instances_csv,
)


def degrees(simple):
    counts = Counter()
    for u, v in simple.edges:
        counts[u] += 1
        counts[v] += 1
    return [counts.get(v, 0) for v in range(simple.n)]


# --------------------------------------------- draws on Random.getrandbits

def sample_uses_the_pool(n, k):
    """The stdlib's choice between its two methods of ``Random.sample``."""
    setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    return n <= setsize


def test_sample_matches_the_stdlib():
    methods = set()
    for n in sorted({*range(0, 201, 9), 21, 22, 85, 86, 200}):
        population = [f"v{i}" for i in range(n)]
        for k in range(n + 1):
            ours, theirs = random.Random(1000 * n + k), random.Random(1000 * n + k)
            assert _sample(ours, population, k) == theirs.sample(population, k), (n, k)
            assert ours.getstate() == theirs.getstate(), (n, k)
            methods.add((sample_uses_the_pool(n, k), k > 5))
    assert methods == {(True, False), (True, True), (False, False), (False, True)}


def test_shuffle_matches_the_stdlib():
    for length in range(201):
        ours, theirs = random.Random(length), random.Random(length)
        x, y = list(range(length)), list(range(length))
        _shuffle(ours, x)
        theirs.shuffle(y)
        assert x == y, length
        assert ours.getstate() == theirs.getstate(), length


def test_sample_rejects_k_outside_the_population():
    # A pool of size 0 would draw getrandbits(0) == 0 forever.
    for n in (0, 1, 5, 30):
        for k in (-1, n + 1):
            with pytest.raises(ValueError, match="larger than population or is negative"):
                _sample(random.Random(0), list(range(n)), k)


# ------------------------------------------------- uncoloured graph sampler

def test_min_degree_contract_holds():
    for n, delta, seed in [(7, 2, 0), (7, 2, 1), (11, 3, 5), (16, 4, 9), (9, 1, 3)]:
        g = random_graph_min_degree(n, delta, seed)
        assert g.n == n
        assert min(degrees(g)) >= delta
        assert all(u < v for u, v in g.edges)
        assert len(set(g.edges)) == len(g.edges)


def test_same_seed_reproduces_same_graph():
    a = random_graph_min_degree(10, 3, 42)
    b = random_graph_min_degree(10, 3, 42)
    assert a == b
    c = random_graph_min_degree(10, 3, 43)
    other = [random_graph_min_degree(10, 3, s) for s in range(40, 60)]
    assert any(g.edges != c.edges for g in other)


def test_tight_order_forces_complete_graph():
    g = random_graph_min_degree(5, 4, 7)
    assert len(g.edges) == 10


def test_extra_edge_probability_one_gives_complete_graph():
    g = random_graph_min_degree(6, 1, 0, extra_edge_prob=1.0)
    assert len(g.edges) == 15


def test_infeasible_degree_rejected():
    with pytest.raises(InfeasibleDegree):
        random_graph_min_degree(4, 4, 0)
    with pytest.raises(InfeasibleDegree):
        random_graph_min_degree(3, 9, 0)
    with pytest.raises(ValueError):
        random_graph_min_degree(4, -1, 0)
    for prob in (-0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            random_graph_min_degree(6, 1, 0, extra_edge_prob=prob)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=14),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
def test_min_degree_property(n, delta, seed):
    if delta >= n:
        with pytest.raises(InfeasibleDegree):
            random_graph_min_degree(n, delta, seed)
        return
    g = random_graph_min_degree(n, delta, seed)
    assert min(degrees(g)) >= delta


# --------------------------------------------------------- greedy colouring

def test_greedy_coloring_is_proper_and_deterministic():
    for seed in range(20):
        base = random_graph_min_degree(9, 2, seed)
        g = greedy_proper_coloring(base, seed + 100)
        assert independent_is_proper(g.n, g.edges)
        again = greedy_proper_coloring(base, seed + 100)
        assert g.edges == again.edges


def test_greedy_palette_stays_under_twice_max_degree():
    for seed in range(20):
        base = random_graph_min_degree(10, 3, seed)
        g = greedy_proper_coloring(base, seed)
        max_deg = max(degrees(base))
        assert max(g.colors) <= 2 * max_deg - 1


def set_based_coloring(graph, seed):
    """The colouring as first written: same shuffle, per-vertex colour sets,
    least free colour found by counting up from 1."""
    rng = random.Random(seed)
    order = list(range(len(graph.edges)))
    rng.shuffle(order)
    at_vertex = {}
    colored = {}
    for idx in order:
        u, v = graph.edges[idx]
        used = at_vertex.setdefault(u, set()) | at_vertex.setdefault(v, set())
        color = 1
        while color in used:
            color += 1
        colored[(u, v)] = color
        at_vertex[u].add(color)
        at_vertex[v].add(color)
    return tuple(sorted((u, v, colored[(u, v)]) for u, v in graph.edges))


def test_greedy_coloring_matches_set_based_reference():
    # The generator configurations of acceptance 7, plus denser graphs
    # whose palettes run past a few bits.
    for seed in range(2_000):
        n = 5 + seed % 8
        delta = 1 + seed % min(4, n - 1)
        base = random_graph_min_degree(n, delta, seed)
        assert greedy_proper_coloring(base, seed).edges == \
            set_based_coloring(base, seed), f"seed {seed}"
    for seed in range(20):
        base = random_graph_min_degree(40, 12, seed, extra_edge_prob=0.5)
        assert greedy_proper_coloring(base, seed).edges == \
            set_based_coloring(base, seed), f"dense seed {seed}"


def test_small_campaign_files_are_pinned():
    # sha256 of both CSVs, taken before the colouring used bitmasks.  The
    # files hold every colouring's solver node count and engine steps, so
    # a change to the colouring, the solver tree or the engine shows here.
    res = run_campaign(CampaignConfig(deltas=(2, 3, 4), samples=8,
                                      recolorings=2, master_seed=11))
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (cells_csv(res), instances_csv(res))]
    assert digests == [
        "ac37be6bbfb90980d67f4da2b652cca370495d6aa187f3239c46a4920b09a8e9",
        "ce6eac545ec6eceb6f512d75066ee6324b12805574a84d4338fe3cf52688c3fd",
    ]


def test_colouring_route_matches_the_validating_constructor():
    # The colouring builds its graph from its own colour bits and the base
    # graph's cached edge index with no check; the validating constructor
    # must store the same graph.  Each base graph is coloured three times,
    # the later two from the index the first one cached.
    cases = 0
    for delta in range(2, 9):
        for n in range(2 * delta + 1, bound_n(delta) + 4):
            for prob in (0.0, 0.3):
                for seed in (0, 1, 2 + n):
                    base = random_graph_min_degree(n, delta, seed, extra_edge_prob=prob)
                    for cseed in (seed, seed + 1000, seed + 2000):
                        g = greedy_proper_coloring(base, cseed)
                        rebuilt = EdgeColoredGraph(g.n, list(g.edges))
                        case = (delta, n, prob, seed, cseed)
                        assert g.edges == rebuilt.edges, case
                        assert g.options == rebuilt.options, case
                        assert g.colors == rebuilt.colors, case
                        assert independent_is_proper(g.n, g.edges), case
                        assert_packed_table(g)
                        cases += 1
    assert cases == 1674


def test_recolouring_one_base_graph_equals_colouring_fresh_copies():
    # Seeds interleave across graphs, so each graph's index is reused after
    # other graphs have been coloured.
    bases = [random_graph_min_degree(n, delta, seed, extra_edge_prob=prob)
             for n, delta, seed, prob in [(7, 2, 0, 0.0), (12, 4, 1, 0.3),
                                          (21, 5, 2, 0.0), (9, 8, 3, 0.0)]]
    for cseed in range(6):
        for base in bases:
            fresh = SimpleGraph(base.n, tuple(base.edges))
            g = greedy_proper_coloring(base, cseed)
            want = greedy_proper_coloring(fresh, cseed)
            assert (g.edges, g.options, g.colors) == \
                (want.edges, want.options, want.colors)


def test_index_is_built_once_per_base_graph(monkeypatch):
    made = []
    real = generators._vertex_bits
    monkeypatch.setattr(generators, "_vertex_bits",
                        lambda n, m: made.append(n) or real(n, m))
    base = random_graph_min_degree(9, 3, 0)
    for cseed in range(4):
        greedy_proper_coloring(base, cseed)
    assert made == [9]
    greedy_proper_coloring(SimpleGraph(base.n, base.edges), 0)
    assert made == [9, 9]


def test_colouring_keeps_the_base_graphs_equality_hash_and_repr():
    base = random_graph_min_degree(9, 3, 4)
    twin = SimpleGraph(base.n, base.edges)
    before = (hash(base), repr(base))
    greedy_proper_coloring(base, 0)
    greedy_proper_coloring(base, 1)
    assert base == twin and twin == base
    assert (hash(base), repr(base)) == before == (hash(twin), repr(twin))
    assert {base: 1}[twin] == 1


# What the colouring returned or raised before it built its graph from its
# own colour bits: every input its fast pass turns down reaches the
# validating constructor, which normalises it or names the same fault.
# test_greedy_coloring_rejects_bad_vertices pins a single bad vertex.
@pytest.mark.parametrize("n, pairs, edges", [
    (4, ((2, 3), (0, 1), (1, 2)), ((0, 1, 1), (1, 2, 2), (2, 3, 1))),
    (3, ((1, 0),), ((0, 1, 1),)),
    (4, ((0, 1), (3, 2)), ((0, 1, 1), (2, 3, 1))),
    # Canonical pairs that are not all tuples in a tuple get no index.
    (3, [(0, 1), (1, 2)], ((0, 1, 1), (1, 2, 2))),
    (3, ((0, 1), [1, 2]), ((0, 1, 1), (1, 2, 2))),
])
def test_colouring_normalises_like_the_constructor(n, pairs, edges):
    # Twice each: such a graph has no index, and its second colouring goes
    # to the constructor again.
    base = SimpleGraph(n, pairs)
    for _ in range(2):
        g = greedy_proper_coloring(base, 0)
        assert g.edges == edges
        assert g.options == EdgeColoredGraph(n, list(edges)).options
        assert g.colors == frozenset(c for _u, _v, c in edges)


@pytest.mark.parametrize("n, pairs, error, message", [
    (3, ((0, 1), (0, 1)), DuplicateEdge, "vertex pair (0, 1) appears more than once"),
    (3, ((1, 1),), LoopEdge, "loop at vertex 1"),
    (3, ((0, 0),), LoopEdge, "loop at vertex 0"),
    (3, ((0, 1), (1, 2.0)), ValueError, "vertex must be an integer, got 2.0"),
    (3, ((0, 1), (1, 3)), ValueError, "edge (1, 3) outside vertex range 0..2"),
    (3.0, ((0, 1),), ValueError, "vertex count must be an integer, got 3.0"),
    (3.0, (), ValueError, "vertex count must be an integer, got 3.0"),
    (-1, ((0, 1),), ValueError, "vertex count must be non-negative"),
    (-1, (), ValueError, "vertex count must be non-negative"),
    (3, [(0, 1), (1, 3)], ValueError, "edge (1, 3) outside vertex range 0..2"),
    (3, ((0, 1), [1, 1]), LoopEdge, "loop at vertex 1"),
])
def test_colouring_raises_like_the_constructor(n, pairs, error, message):
    base = SimpleGraph(n, pairs)
    for _ in range(2):
        with pytest.raises(Exception) as info:
            greedy_proper_coloring(base, 0)
        assert type(info.value) is error
        assert str(info.value) == message


def test_list_paired_graph_is_coloured_from_its_current_pairs():
    # A list can change between colourings, so it is never indexed.
    pairs = [(0, 1), (1, 2)]
    base = SimpleGraph(3, pairs)
    assert greedy_proper_coloring(base, 0).edges == ((0, 1, 1), (1, 2, 2))
    pairs[1] = (0, 2)
    assert greedy_proper_coloring(base, 0).edges == ((0, 1, 1), (0, 2, 2))
    pairs.append((1, 3))
    with pytest.raises(ValueError, match=r"edge \(1, 3\) outside vertex range 0..2"):
        greedy_proper_coloring(base, 0)
    pair = [1, 2]
    base = SimpleGraph(3, ((0, 1), pair))
    assert greedy_proper_coloring(base, 0).edges == ((0, 1, 1), (1, 2, 2))
    pair[0] = 0
    assert greedy_proper_coloring(base, 0).edges == ((0, 1, 1), (0, 2, 2))


@pytest.mark.parametrize("pair, message", [
    ((0, 5), "edge (0, 5) outside vertex range 0..2"),
    ((-1, 1), "edge (-1, 1) outside vertex range 0..2"),
    ((0, 1.0), "vertex must be an integer, got 1.0"),
    ((0, True), "vertex must be an integer, got True"),
])
def test_greedy_coloring_rejects_bad_vertices(pair, message):
    with pytest.raises(ValueError) as info:
        greedy_proper_coloring(SimpleGraph(3, (pair,)), 0)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_greedy_coloring_small_literals():
    single = greedy_proper_coloring(SimpleGraph.from_pairs(2, [(0, 1)]), 0)
    assert single.edges == ((0, 1, 1),)
    triangle = greedy_proper_coloring(SimpleGraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)]), 0)
    assert set(triangle.colors) == {1, 2, 3}


# --------------------------------------------------------- one-factorisation

def test_one_factorization_smallest_cases():
    k1 = one_factorization(1)
    assert k1.edges == ((0, 1, 1),)
    k2 = one_factorization(2)
    assert k2.n == 4 and len(k2.edges) == 6
    assert sorted(len(es) for es in color_classes(k2).values()) == [2, 2, 2]


def test_one_factorization_classes_are_perfect_matchings():
    for k in (1, 2, 3, 4, 5):
        g = one_factorization(k)
        assert g.n == 2 * k
        assert len(g.edges) == k * (2 * k - 1)
        assert min_degree(g) == 2 * k - 1
        classes = color_classes(g)
        assert len(classes) == 2 * k - 1
        for edges in classes.values():
            covered = {v for u, w, _ in edges for v in (u, w)}
            assert len(edges) == k and len(covered) == 2 * k


def test_one_factorization_rejects_nonpositive():
    with pytest.raises(ValueError):
        one_factorization(0)


# ------------------------------------------------------- random Latin square

def test_random_latin_valid_and_deterministic():
    for n in (1, 2, 3, 4, 5, 6):
        a = random_latin(n, 11)
        b = random_latin(n, 11)
        assert a.cells == b.cells and a.n == n
    variants = {random_latin(5, s).cells for s in range(10)}
    assert len(variants) > 1


def test_random_latin_order_limits():
    with pytest.raises(OrderTooLarge):
        random_latin(10, 0)
    with pytest.raises(ValueError):
        random_latin(0, 0)


def test_random_latin_squares_are_pinned():
    # sha256 of the dumps of orders 1-9, seeds 0-19, in that order, taken
    # while the backtracking was still recursive: the iterative search
    # makes the same shuffle draws in the same order.
    digest = hashlib.sha256()
    for n in range(1, 10):
        for seed in range(20):
            digest.update(dumps_square(random_latin(n, seed)).encode())
    assert digest.hexdigest() == (
        "d106cd96ef80a9ac3803bfb2a0766b27c5e798a759dc257476c440bcbb99ecde")


def test_random_latin_needs_no_recursion_depth():
    # The recursive search went n*n + 1 frames deep; order 9 needs 82.
    proc = fresh_interpreter(
        "import sys\n"
        "from rainbowmatch import random_latin\n"
        "sys.setrecursionlimit(60)\n"
        "for seed in range(20):\n"
        "    assert random_latin(9, seed).n == 9\n")
    assert proc.returncode == 0, proc.stderr


def test_random_latin_leaves_no_reference_cycle():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for seed in range(10):
            random_latin(6, seed)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
