import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    LatinSquare,
    NotCompleteBipartite,
    OrderTooLarge,
    ParseError,
    WrongColourCount,
    build_graph,
    color_classes,
    count_rainbow_matchings,
    count_transversals,
    cyclic_square,
    dumps_square,
    graph_to_latin,
    latin_to_graph,
    parse_square,
)
from rainbowmatch.generators import random_latin

from conftest import brute_transversals


# -------------------------------------------------------------- validation

def test_rejects_non_latin_rows():
    with pytest.raises(ValueError):
        LatinSquare(((1, 1), (2, 2)))


def test_rejects_non_latin_columns():
    with pytest.raises(ValueError):
        LatinSquare(((1, 2), (1, 2)))


def test_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        LatinSquare(((1, 2), (2,)))
    with pytest.raises(ValueError):
        LatinSquare(())


def test_rejects_cells_that_are_not_exactly_int():
    for cells, bad in [([[1.5, 2.2], [2.7, 1.1]], "1.5"),
                       ([[True, 2], [2, True]], "True"),
                       ([[1, "2"], ["2", 1]], "'2'")]:
        with pytest.raises(ValueError, match=f"cell must be an integer, got {bad}"):
            LatinSquare(cells)


def test_cyclic_squares():
    assert cyclic_square(1).cells == ((1,),)
    assert cyclic_square(2).cells == ((1, 2), (2, 1))
    z4 = cyclic_square(4)
    assert z4.cells[0] == (1, 2, 3, 4)
    assert z4.cells[3] == (4, 1, 2, 3)


# ------------------------------------------------------------------ bridge

def test_latin_to_graph_z3_structure():
    g = latin_to_graph(cyclic_square(3))
    assert g.n == 6 and len(g.edges) == 9
    classes = color_classes(g)
    assert set(classes) == {1, 2, 3}
    assert all(len(es) == 3 for es in classes.values())  # perfect matchings


def test_latin_to_graph_order_one():
    g = latin_to_graph(cyclic_square(1))
    assert g.edges == ((0, 1, 1),)


def test_round_trip_z4():
    square = cyclic_square(4)
    assert graph_to_latin(latin_to_graph(square)).cells == square.cells


def test_round_trip_survives_vertex_relabelling():
    # K_{2,2} with rows {0,3} and columns {1,2}: side detection must follow
    # the bipartition, not the id order.  Colours outside 1..n decode to
    # symbols by rank, so colours 4 and 9 read as 1 and 2.
    for a, b in [(1, 2), (4, 9)]:
        g = build_graph(4, [(0, 1, a), (0, 2, b), (1, 3, b), (2, 3, a)])
        square = graph_to_latin(g)
        assert square.n == 2
        assert {square.cells[0], square.cells[1]} == {(1, 2), (2, 1)}
        assert square.cells == ((1, 2), (2, 1))


def test_graph_to_latin_rejects_odd_cycle():
    g = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    with pytest.raises(NotCompleteBipartite):
        graph_to_latin(g)


def test_graph_to_latin_rejects_an_odd_cycle_on_an_even_order():
    # Four vertices pass the even-order test; the triangle 012 fails the
    # two-colouring.
    g = build_graph(4, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 1)])
    with pytest.raises(NotCompleteBipartite, match="odd cycle"):
        graph_to_latin(g)


def test_graph_to_latin_rejects_wrong_colour_count():
    g = build_graph(4, [(0, 2, 1), (0, 3, 2), (1, 2, 2), (1, 3, 3)])
    with pytest.raises(WrongColourCount):
        graph_to_latin(g)


def test_graph_to_latin_rejects_incomplete_bipartite():
    g = build_graph(4, [(0, 2, 1), (1, 3, 1)])
    with pytest.raises(NotCompleteBipartite):
        graph_to_latin(g)


# ------------------------------------------------------------- transversals

def test_known_transversal_counts():
    assert count_transversals(cyclic_square(3)) == 3
    assert count_transversals(cyclic_square(4)) == 0
    assert count_transversals(cyclic_square(5)) == 15


def test_transversal_count_matches_permutation_oracle():
    # Every order 1..7 covers both parities of the top/bottom split and the
    # empty top half at n = 1.
    for n in (1, 2, 3, 4, 5):
        square = cyclic_square(n)
        assert count_transversals(square) == brute_transversals(square)
    for n in range(1, 8):
        for seed in range(10):
            square = random_latin(n, seed)
            assert count_transversals(square) == brute_transversals(square)


def _isotope(square, rng):
    """The square with its rows, columns and symbols each permuted."""
    n = square.n
    rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
    return LatinSquare([[syms[square.cells[r][c] - 1] + 1 for c in cols] for r in rows])


def test_transversal_count_is_invariant_under_isotopy():
    rng = random.Random(13)
    for n in range(1, 10):
        for seed in range(3):
            square = random_latin(n, seed)
            count = count_transversals(square)
            for _ in range(2):
                other = _isotope(square, rng)
                assert count_transversals(other) == count
                if n <= 8:
                    assert count_rainbow_matchings(latin_to_graph(other), n) == count


def test_transversal_count_matches_rainbow_matching_counter():
    for n in (1, 2, 3, 4, 5):
        square = cyclic_square(n)
        graph = latin_to_graph(square)
        assert count_transversals(square) == count_rainbow_matchings(graph, n)


def test_order_cap_enforced():
    with pytest.raises(OrderTooLarge):
        count_transversals(cyclic_square(12))


def test_published_cyclic_counts_for_both_counters():
    # OEIS A006717: transversals of the cyclic square of odd order n.
    # Cyclic squares of even order have none.
    published = {3: 3, 5: 15, 7: 133, 9: 2025, 11: 37851}
    published.update({n: 0 for n in (2, 4, 6, 8)})
    for n, want in published.items():
        square = cyclic_square(n)
        assert count_transversals(square) == want
        assert count_rainbow_matchings(latin_to_graph(square), n) == want


def test_ryser_desk_scale():
    for n in (1, 3, 5, 7):
        assert count_transversals(cyclic_square(n)) > 0
    for n in (2, 4, 6, 8):
        assert count_transversals(cyclic_square(n)) == 0


# ---------------------------------------------------------------- text form

def test_parse_and_dump_square():
    text = "# comment\n3\n1 2 3\n2 3 1\n3 1 2\n"
    square = parse_square(text)
    assert square.cells == cyclic_square(3).cells
    assert parse_square(dumps_square(square)).cells == square.cells


def test_parse_square_errors_name_the_physical_line():
    # Comment headers and blank lines count toward the line number.
    for text, line, message in [
            ("# c\n\n3\n1 2 3\n2 3 x\n3 1 2\n", 5, "cells must be integers"),
            ("# c\n3\n1 2 3\n\n2 3 1 4\n3 1 2\n", 5, "expected 3 cells, got 4"),
            ("\n\nx\n", 3, "expected the order as the header, got 'x'"),
            ("# h\n2\n1 1\n2 2\n", 3, "row is not a permutation of 1..2"),
            ("-1\n", 1, "order must be at least 1, got -1"),
            ("0\n", 1, "order must be at least 1, got 0")]:
        with pytest.raises(ParseError) as exc:
            parse_square(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"
    # A column spans lines, so it is named by its number from 1.
    with pytest.raises(ParseError) as exc:
        parse_square("3\n1 2 3\n2 3 1\n3 2 1\n")
    assert exc.value.line is None
    assert str(exc.value) == "column 2 is not a permutation of 1..3"
    text = "# order\n3\n1 2 3\n\n2 3 1  # middle\n\n3 1 2\n"
    assert parse_square(text) == cyclic_square(3)


def test_parse_square_errors():
    with pytest.raises(ParseError):
        parse_square("2\n1 2\n")           # missing row
    with pytest.raises(ParseError):
        parse_square("2\n1 2\n2 x\n")      # bad symbol
    with pytest.raises(ParseError):
        parse_square("")


def malformed_square_texts(count, seed):
    """Seeded corruptions of valid square texts: cut, repeat, swap or drop
    lines, splice in foreign tokens and bytes, change the header."""
    rng = random.Random(seed)
    tokens = ["x", "", "-1", "0", "1.5", "1e3", "nan", "10**9", "#", "\t",
              "99999999999999999999", "\u00b2", "\x00", "2 2", "--", "1_0"]
    for _ in range(count):
        n = rng.randint(1, 6)
        lines = dumps_square(random_latin(n, rng.randrange(10_000))).splitlines()
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(7)
            lines = lines or [""]
            i = rng.randrange(len(lines))
            if kind == 0:
                del lines[i]
            elif kind == 1:
                lines.insert(i, lines[rng.randrange(len(lines))])
            elif kind == 2:
                j = rng.randrange(len(lines))
                lines[i], lines[j] = lines[j], lines[i]
            elif kind == 3:
                cells = lines[i].split() or [""]
                cells[rng.randrange(len(cells))] = rng.choice(tokens)
                lines[i] = " ".join(cells)
            elif kind == 4:
                lines[0] = rng.choice(tokens + [str(n + 1), str(n - 1), str(-n)])
            elif kind == 5:
                k = rng.randrange(len(lines[i]) + 1)
                lines[i] = lines[i][:k] + chr(rng.randrange(1, 0x250)) + lines[i][k:]
            else:
                lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        yield "\n".join(lines) + rng.choice(["", "\n", "\r\n"])


def test_parse_square_fails_malformed_text_only_with_parse_error():
    rejected = 0
    for text in malformed_square_texts(2_000, seed=5):
        try:
            square = parse_square(text)
        except ParseError:
            rejected += 1
        else:
            # Some corruptions leave a valid square (say, two rows swapped).
            assert parse_square(dumps_square(square)) == square
    assert rejected >= 1_500


# -------------------------------------------------------------- properties

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_random_square_round_trips_and_graph_is_proper(n, seed):
    square = random_latin(n, seed)
    graph = latin_to_graph(square)       # construction validates properness
    assert graph.n == 2 * n and len(graph.edges) == n * n
    assert graph_to_latin(graph).cells == square.cells
