import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    DuplicateEdge,
    EdgeColoredGraph,
    ImproperColoring,
    LoopEdge,
    Matching,
    SimpleGraph,
    UnknownEdge,
    bound_n,
    build_graph,
    color_classes,
    greedy_proper_coloring,
    is_rainbow_matching,
    max_degree,
    min_degree,
    parse_graph,
)
from rainbowmatch import graphs

from conftest import (
    assert_packed_table,
    c4,
    k33_cyclic,
    k4_one_factorization,
    packed_table,
    two_edge_path,
)


# ------------------------------------------------------------ construction

def test_path_builds_with_expected_degrees():
    g = two_edge_path()
    assert g.n == 3
    assert min_degree(g) == 1
    assert max_degree(g) == 2


def test_k4_one_factorization_is_three_regular():
    g = k4_one_factorization()
    assert min_degree(g) == 3
    assert max_degree(g) == 3
    assert len(g.colors) == 3


def test_c4_is_two_regular():
    g = c4()
    assert min_degree(g) == 2 == max_degree(g)


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        build_graph(2, [(0, 0, 1)])


def test_duplicate_pair_rejected():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1, 1), (1, 0, 2)])


def test_improper_coloring_rejected_and_reports_both_edges():
    with pytest.raises(ImproperColoring) as exc:
        build_graph(3, [(0, 1, 1), (1, 2, 1)])
    message = str(exc.value)
    assert "(0, 1, 1)" in message and "(1, 2, 1)" in message


def test_vertex_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2, 1)])


def test_nonpositive_color_rejected():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, 0)])


@pytest.mark.parametrize("n, edge, named", [
    (3, (0, 1, 2.7), "2.7"),     # was stored as colour 2
    (3, (0, True, 2), "True"),   # was stored as (0, 1, 2)
    (3, (0.0, 1, 1), "0.0"),     # was accepted
    (3, (0, 1, True), "True"),
])
def test_non_integer_values_rejected_by_name(n, edge, named):
    with pytest.raises(ValueError, match=named):
        build_graph(n, [edge])


@pytest.mark.parametrize("n", [3.0, True, "3"])
def test_non_integer_vertex_count_rejected(n):
    with pytest.raises(ValueError, match=repr(n)):
        build_graph(n, [])


def test_sparse_graph_with_many_vertices_builds_in_linear_memory():
    # One edge across 40,000 vertices: the table needs two vertex bits, not
    # all 40,000 (about 100 MB of ints).  Both one-pass builders are held.
    for build in (lambda: parse_graph("g 40000\ne 0 39999 1\n"),
                  lambda: greedy_proper_coloring(SimpleGraph(40000, ((0, 39999),)), 0)):
        tracemalloc.start()
        try:
            g = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_000_000
        assert g.edges == ((0, 39999, 1),)
        assert g.options[0] == ((1 << 39999) | (1 << 40000),)
        assert g.options[39999] == (1 | (1 << 40000),)


def test_edges_normalised_lower_vertex_first():
    g = build_graph(3, [(2, 0, 1)])
    assert g.edges == ((0, 2, 1),)
    assert g.has_edge(0, 2, 1) and g.has_edge(2, 0, 1)


@pytest.mark.parametrize("edges, error, message", [
    # Loops are rejected while the input is read, before any pair is compared.
    ([(0, 1, 1), (1, 0, 2), (2, 2, 1)], LoopEdge, "loop at vertex 2"),
    # Two repeated pairs: (0, 1) sorts first whatever the input order.
    ([(3, 4, 1), (4, 3, 2), (1, 0, 6), (0, 1, 5)], DuplicateEdge,
     "vertex pair (0, 1) appears more than once"),
    # A repeated pair that sorts before two clashes.
    ([(1, 2, 3), (0, 4, 9), (4, 0, 8), (1, 3, 3), (2, 3, 3)], DuplicateEdge,
     "vertex pair (0, 4) appears more than once"),
    # A clash that sorts before a repeated pair and a second clash.
    ([(2, 3, 4), (3, 4, 4), (0, 2, 1), (3, 2, 5), (0, 1, 1)], ImproperColoring,
     "edges (0, 1, 1) and (0, 2, 1) share a vertex and colour 1"),
    # (2, 3, 1) clashes at both endpoints: the earlier edge at its lower
    # endpoint is named, though (0, 3, 1) sorts before it.
    ([(2, 3, 1), (0, 3, 1), (1, 2, 1)], ImproperColoring,
     "edges (1, 2, 1) and (2, 3, 1) share a vertex and colour 1"),
    # In canonical order, an early clash or repeated pair does not hide a
    # later value that is not an int: values are checked first.
    ([(0, 1, 1), (0, 2, 1), (3, 4, True)], ValueError,
     "colour must be a positive integer, got True"),
    ([(0, 1, 1), (0, 1, 2), (2, 3.0, 1)], ValueError,
     "vertex must be an integer, got 3.0"),
    ([(0, 1, 1), (0, 2, 2), (False, 3, 3)], ValueError,
     "vertex must be an integer, got False"),
    # True and 1.0 hash equal to colour 1, yet are named.
    ([(0, 1, 1), (2, 3, True)], ValueError,
     "colour must be a positive integer, got True"),
    ([(0, 1, 1.0), (2, 3, 1)], ValueError,
     "colour must be a positive integer, got 1.0"),
    # Canonical but for (0, 1, 2) out of order: the clash is named in sorted
    # order, not in the order the input reached it.
    ([(0, 2, 1), (1, 2, 2), (0, 1, 2)], ImproperColoring,
     "edges (0, 1, 2) and (1, 2, 2) share a vertex and colour 2"),
])
def test_first_violation_in_sorted_order_is_reported(edges, error, message):
    with pytest.raises(Exception) as exc:
        build_graph(5, edges)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_input_canonical_but_for_one_pair_is_sorted_and_indexed():
    canonical = [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1), (3, 4, 3)]
    swapped = canonical[:]
    swapped[1], swapped[2] = swapped[2], swapped[1]
    g, h = build_graph(5, canonical), build_graph(5, swapped)
    assert h.edges == tuple(canonical)
    assert h.options == g.options and h.colors == g.colors


def test_option_entries_pack_the_other_endpoint_and_the_colour_rank():
    # The 4-cycle 0-1-2-3-0 coloured 1, 2, 3, 2 over n = 4 vertex bits:
    # colour 1 is rank 0 (bit 4), 2 is rank 1 (bit 5), 3 is rank 2 (bit 6).
    g = c4()
    assert g.edges == ((0, 1, 1), (0, 3, 2), (1, 2, 2), (2, 3, 3))
    assert g.options == (
        (0b0010 | 1 << 4, 0b1000 | 1 << 5),
        (0b0001 | 1 << 4, 0b0100 | 1 << 5),
        (0b0010 | 1 << 5, 0b1000 | 1 << 6),
        (0b0001 | 1 << 5, 0b0100 | 1 << 6),
    )
    # Colour values are never bit positions: only their ranks are.
    h = build_graph(3, [(0, 1, 10 ** 6), (1, 2, 7)])
    assert h.options == ((0b010 | 1 << 4,), (0b001 | 1 << 4, 0b100 | 1 << 3),
                         (0b010 | 1 << 3,))
    for graph in (g, h, k4_one_factorization(), k33_cyclic(), two_edge_path()):
        assert_packed_table(graph)


def test_edge_masks_decode_to_their_edges():
    # An option entry ORed with its vertex's bit names its edge in the
    # sorted edges, whichever endpoint it is read from.
    g = k33_cyclic()
    for v, row in enumerate(g.options):
        at_v = [e for e in g.edges if v in e[:2]]
        assert [graphs._edge_of(g.edges, (1 << v) | m) for m in row] == at_v


def test_edgeless_graph_degrees_are_zero():
    g = build_graph(0, [])
    assert min_degree(g) == 0 and max_degree(g) == 0


# ---------------------------------------------------------- colour profile

def class_sizes(graph):
    return {c: len(es) for c, es in color_classes(graph).items()}


def test_profile_k4_every_class_has_two_edges():
    assert class_sizes(k4_one_factorization()) == {1: 2, 2: 2, 3: 2}


def test_profile_all_distinct_colours_gives_one():
    g = build_graph(4, [(0, 1, 1), (2, 3, 2)])
    assert class_sizes(g) == {1: 1, 2: 1}


def test_profile_k33_cyclic_gives_three():
    assert max(class_sizes(k33_cyclic()).values()) == 3


def test_profile_edgeless_gives_zero():
    assert class_sizes(build_graph(3, [])) == {}


def test_color_classes_partition_edges():
    g = k33_cyclic()
    classes = color_classes(g)
    assert sorted(e for edges in classes.values() for e in edges) == list(g.edges)


# -------------------------------------------------------------- matchings

def test_rainbow_predicate_on_c4_colourings():
    same = c4((1, 2, 1, 2))
    opposite = [(0, 1, 1), (2, 3, 1)]
    assert is_rainbow_matching(same, Matching(opposite)) is False
    mixed = c4((1, 2, 3, 2))
    assert is_rainbow_matching(mixed, Matching([(0, 1, 1), (2, 3, 3)])) is True


def test_empty_matching_is_rainbow():
    assert is_rainbow_matching(c4(), Matching()) is True


def test_unknown_edge_raises():
    # A chord, endpoints outside 0..n-1 (a negative one must not wrap round
    # to the last vertex's adjacency), a vertex that is not an int, and a
    # colour that is not exactly an int: 1.0 and True equal the colour 1 of
    # the edge (0, 1) but are not colours.
    for u, v, c in [(0, 2, 9), (-1, 0, 1), (0, 9, 1), (1.0, 2, 2),
                    (0, 1, 1.0), (0, 1, True)]:
        assert not c4().has_edge(u, v, c)
        assert not c4().has_edge(u, v) or (u, v) == (0, 1)
        with pytest.raises(UnknownEdge):
            is_rainbow_matching(c4(), Matching([(u, v, c)]))


def test_matching_properties():
    m = Matching([(2, 3, 3), (0, 1, 1)])
    assert m.edges == ((0, 1, 1), (2, 3, 3))
    assert m.vertices == frozenset({0, 1, 2, 3})
    assert m.colors == (1, 3)
    assert m.is_vertex_disjoint() and m.has_distinct_colors()
    assert len(m) == 2


def test_overlapping_matching_detected():
    m = Matching([(0, 1, 1), (1, 2, 2)])
    assert not m.is_vertex_disjoint()
    n = Matching([(0, 1, 1), (2, 3, 1)])
    assert not n.has_distinct_colors()


# ------------------------------------------------------------------ bounds

def test_bound_n_known_values():
    assert bound_n(2) == 7
    assert bound_n(3) == 11
    assert bound_n(4) == 16
    assert bound_n(5) == 20


def test_bound_n_rejects_nonpositive():
    with pytest.raises(ValueError):
        bound_n(0)


@given(st.integers(min_value=1, max_value=10_000))
def test_bound_n_is_ceiling_and_dominates_twice_delta(delta):
    value = bound_n(delta)
    assert 2 * value >= 9 * delta - 5 > 2 * (value - 1)
    assert value >= 2 * delta


def diemunsch_bound(delta):
    """The earlier published order threshold of Diemunsch et al.,
    floor(13d/2 - 23/2 + 41/(8d)) + 1, evaluated exactly."""
    value = Fraction(13 * delta, 2) - Fraction(23, 2) + Fraction(41, 8 * delta)
    return math.floor(value) + 1


def test_diemunsch_known_values():
    # delta=10 evaluates to floor(54.0125) + 1; the formula is authoritative.
    assert diemunsch_bound(5) == 23
    assert diemunsch_bound(10) == 55


def test_bound_improves_on_diemunsch_for_five_and_up():
    for delta in range(5, 101):
        assert bound_n(delta) < diemunsch_bound(delta)


# ----------------------------------------------------- hypothesis strategy

@st.composite
def proper_graphs(draw, max_n=8, max_m=14):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_m)
                  if pairs else st.just([]))
    incident: dict[int, set[int]] = {v: set() for v in range(n)}
    edges = []
    for u, v in chosen:
        banned = incident[u] | incident[v]
        palette = [c for c in range(1, 2 * n + 2) if c not in banned]
        c = draw(st.sampled_from(palette[:4]))
        edges.append((u, v, c))
        incident[u].add(c)
        incident[v].add(c)
    return build_graph(n, edges)


@settings(max_examples=100)
@given(proper_graphs())
def test_every_color_class_is_vertex_disjoint(g):
    for edges in color_classes(g).values():
        assert Matching(edges).is_vertex_disjoint()


def outcome(build):
    """The graph ``build()`` returns, or the type and message it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def faulty_edge_lists(draw):
    """Canonical edge lists of proper graphs, some broken: a pair swapped,
    reversed or repeated, a colour reused at a neighbour, a value that is
    not an int or out of range, an edge given as a list."""
    g = draw(proper_graphs())
    edges = [list(e) for e in g.edges]
    listed = set()
    for _ in range(draw(st.integers(0, 2)) if edges else 0):
        i = draw(st.integers(0, len(edges) - 1))
        j = draw(st.integers(0, len(edges) - 1))
        kind = draw(st.sampled_from(
            ["swap", "reverse", "repeat", "recolour", "value", "list"]))
        if kind == "list":
            listed.add(i)
        elif kind == "swap":
            edges[i], edges[j] = edges[j], edges[i]
        elif kind == "reverse":
            edges[i][:2] = edges[i][1::-1]
        elif kind == "repeat":
            edges.insert(j, [*edges[i][:2], edges[j][2]])
        elif kind == "recolour":
            edges[i][2] = edges[j][2]
        else:
            edges[i][draw(st.integers(0, 2))] = draw(st.sampled_from(
                [True, False, 1.0, 2.5, -1, 0, g.n, g.n + 3]))
    return g.n, [e if i in listed else tuple(e) for i, e in enumerate(edges)]


@settings(max_examples=300)
@given(faulty_edge_lists())
def test_canonical_route_agrees_with_the_sorting_route(case):
    # A list may take the one-pass route; an iterator always goes through
    # normalising and sorting.  Both must build the same graph, or raise
    # the same error with the same message.
    n, edges = case
    built = outcome(lambda: build_graph(n, edges))
    reference = outcome(lambda: build_graph(n, iter(edges)))
    assert built == reference
    if isinstance(built, EdgeColoredGraph):
        assert built.options == reference.options
        assert built.colors == reference.colors
        assert_packed_table(built)
        assert_packed_table(reference)


def first_fault(edges):
    """Reference for the constructor's fault naming: the first repeated
    pair or colour clash of the sorted, normalised edges, as a type and a
    message, with the earlier edge at the lower endpoint named first; None
    for a proper simple graph."""
    ordered = sorted((min(u, v), max(u, v), c) for u, v, c in edges)
    for i, (u, v, c) in enumerate(ordered):
        if i and ordered[i - 1][:2] == (u, v):
            return DuplicateEdge, f"vertex pair ({u}, {v}) appears more than once"
        for x in (u, v):
            for e in ordered[:i]:
                if e[2] == c and x in e[:2]:
                    return (ImproperColoring, f"edges {e} and {(u, v, c)} "
                            f"share a vertex and colour {c}")
    return None


@st.composite
def clashing_edge_lists(draw):
    """Edge lists of proper graphs with planted repeated pairs and colour
    clashes: anywhere, at the last canonical edge only, or at an upper
    endpoint only; then kept canonical, shuffled or with some pairs
    reversed, as a list or a tuple."""
    g = draw(proper_graphs(max_n=7))
    edges = list(g.edges)
    for _ in range(draw(st.integers(1, 3)) if edges else 0):
        kind = draw(st.sampled_from(["repeat", "clash", "last", "upper"]))
        i = len(edges) - 1 if kind == "last" else draw(
            st.integers(0, len(edges) - 1))
        u, v, c = edges[i]
        if kind == "repeat":
            edges.insert(draw(st.integers(0, len(edges))),
                         (u, v, draw(st.integers(1, 4))))
            continue
        at = {x: {e[2] for j, e in enumerate(edges) if j != i and x in e[:2]}
              for x in (u, v)}
        palette = sorted(at[v] - at[u] if kind == "upper" else at[u] | at[v])
        if palette:
            edges[i] = (u, v, draw(st.sampled_from(palette)))
    order = draw(st.sampled_from(["canonical", "shuffled", "reversed"]))
    if order == "shuffled":
        edges = draw(st.permutations(edges))
    elif order == "reversed":
        edges = [(v, u, c) if draw(st.booleans()) else (u, v, c)
                 for u, v, c in edges]
    return g.n, draw(st.sampled_from([list, tuple]))(edges)


@settings(max_examples=300)
@given(clashing_edge_lists())
def test_first_fault_matches_a_reference_search(case):
    n, edges = case
    built = outcome(lambda: build_graph(n, edges))
    expected = first_fault(edges)
    if expected is None:
        assert isinstance(built, EdgeColoredGraph)
        assert built.edges == tuple(sorted(
            (min(u, v), max(u, v), c) for u, v, c in edges))
        assert_packed_table(built)
    else:
        assert built == expected


@settings(max_examples=100)
@given(proper_graphs())
def test_canonical_edges_skip_normalising(g):
    with mock.patch.object(graphs, "_normalised", side_effect=AssertionError):
        assert build_graph(g.n, list(g.edges)) == g
        assert build_graph(g.n, g.edges).options == g.options == packed_table(g)


@settings(max_examples=100)
@given(proper_graphs())
def test_graph_equality_and_hash_agree(g):
    same = EdgeColoredGraph(g.n, list(reversed(g.edges)))
    assert same == g and hash(same) == hash(g)


@settings(max_examples=100)
@given(proper_graphs())
def test_has_edge_agrees_with_a_brute_force_edge_set(g):
    triples = {(u, v, c) for u, v, c in g.edges}
    triples |= {(v, u, c) for u, v, c in g.edges}
    pairs = {(u, v) for u, v, _c in triples}
    colours = [0, *sorted(g.colors), max(g.colors, default=0) + 1]
    vertices = range(-1, g.n + 1)
    for u in vertices:
        for v in vertices:
            assert g.has_edge(u, v) == ((u, v) in pairs)
            for c in colours:
                assert g.has_edge(u, v, c) == ((u, v, c) in triples)
    for u, v, c in g.edges:
        # 1.0 and True equal 1 but name no vertex or colour.
        assert not g.has_edge(float(u), v) and not g.has_edge(v, float(u))
        assert not g.has_edge(u, v, float(c))
        if u == 1:
            assert not g.has_edge(True, v, c)
        if c == 1:
            assert not g.has_edge(u, v, True)
