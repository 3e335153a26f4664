import json

import pytest
from hypothesis import given, settings

from rainbowmatch import ParseError, dump_graph, dumps_graph, load_graph, parse_graph

from conftest import k4_one_factorization
from test_graphs import proper_graphs


def test_parse_text_with_comments_and_blank_lines():
    text = """# sample instance
g 4

e 0 1 1
e 2 3 1   # trailing comment
"""
    g = parse_graph(text)
    assert g.n == 4
    assert g.edges == ((0, 1, 1), (2, 3, 1))


def test_text_round_trip_is_bit_exact():
    g = k4_one_factorization()
    text = dumps_graph(g)
    assert dumps_graph(parse_graph(text)) == text


def test_json_round_trip():
    g = k4_one_factorization()
    text = dumps_graph(g, fmt="json")
    parsed = parse_graph(text)
    assert parsed == g
    payload = json.loads(text)
    assert payload["n"] == 4 and len(payload["edges"]) == 6


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_graph("g 3\ne 0 1\n")
    assert str(exc.value).startswith("line 2:")
    assert exc.value.line == 2


def test_parse_error_on_bad_integer():
    # The first field that is not an integer is named, with its line.
    for record, token in [("e 0 x 1", "x"), ("e 0 1 y", "y"),
                          ("e z 1 w", "z"), ("e 0 1 1.5", "1.5")]:
        with pytest.raises(ParseError) as exc:
            parse_graph(f"g 3\n{record}\n")
        assert str(exc.value) == f"line 2: expected an integer, got {token!r}"


def test_parse_error_on_missing_header():
    with pytest.raises(ParseError):
        parse_graph("e 0 1 1\n")


@pytest.mark.parametrize("text, message", [
    ("g 3\ng 3\n", "line 2: repeated 'g' header"),
    ("g 3 4\n", "line 1: expected 'g <n>'"),
    ("g 3\ne 0 1 1\nx 0 1\n", "line 3: unknown record type 'x'"),
    ("# no records\n", "missing 'g <n>' header"),
], ids=["repeated-header", "malformed-header", "unknown-record",
        "no-header"])
def test_text_record_errors_name_their_line(text, message):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("edges", [[[0, 1]], [[0, 1, 1, 2]], [{"u": 0}], "01"],
                         ids=["pair", "quadruple", "object", "string"])
def test_json_edges_must_be_triples(edges):
    with pytest.raises(ParseError) as exc:
        parse_graph(json.dumps({"n": 3, "edges": edges}))
    assert str(exc.value) == "'edges' must be a list of [u, v, colour] triples"


def test_parse_error_on_bad_json():
    with pytest.raises(ParseError):
        parse_graph("{not json")
    with pytest.raises(ParseError):
        parse_graph(json.dumps({"edges": [[0, 1, 1]]}))  # no n field


@pytest.mark.parametrize("payload", [
    {"n": "abc", "edges": []},
    {"n": 3.5, "edges": [[0, 1, 1]]},
    {"n": True, "edges": []},
    {"n": 3, "edges": [["0", 1, 1]]},
    {"n": 3, "edges": [[0, 1, None]]},
    {"n": 3, "edges": [[0, 1, 1.5]]},
    {"n": 3, "edges": [[0, 1, True]]},
], ids=["string-n", "float-n", "bool-n", "string-vertex", "null-colour",
        "float-colour", "bool-colour"])
def test_json_values_must_be_integers(payload):
    with pytest.raises(ParseError):
        parse_graph(json.dumps(payload))


@pytest.mark.parametrize("text", [
    "g 2\ne 0 5 1\n",
    "g -1\n",
    "g 3\ne 0 1 0\n",
    json.dumps({"n": 2, "edges": [[0, 5, 1]]}),
    json.dumps({"n": -1, "edges": []}),
    json.dumps({"n": 3, "edges": [[0, 1, 0]]}),
], ids=["text-vertex-range", "text-negative-n", "text-colour-zero",
        "json-vertex-range", "json-negative-n", "json-colour-zero"])
def test_values_the_graph_rejects_raise_parse_error(text):
    with pytest.raises(ParseError):
        parse_graph(text)


def test_file_round_trip(tmp_path):
    g = k4_one_factorization()
    path = tmp_path / "k4.txt"
    dump_graph(g, path)
    assert load_graph(path) == g
    jpath = tmp_path / "k4.json"
    dump_graph(g, jpath, fmt="json")
    assert load_graph(jpath) == g


@settings(max_examples=100)
@given(proper_graphs())
def test_round_trip_any_graph_both_formats(g):
    assert parse_graph(dumps_graph(g)) == g
    assert parse_graph(dumps_graph(g, fmt="json")) == g
