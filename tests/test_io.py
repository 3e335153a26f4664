import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    EdgeColoredGraph,
    ParseError,
    dump_graph,
    dumps_graph,
    load_graph,
    parse_graph,
)
from rainbowmatch import io as rio

from conftest import assert_packed_table, fresh_interpreter, k4_one_factorization
from test_graphs import outcome, proper_graphs


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


def test_files_are_read_and_written_as_utf8(tmp_path):
    # Under these two flags any open() that leaves the encoding to the
    # locale raises.  A warning filter inside the suite cannot show this:
    # installed plugins open files with the locale's encoding themselves.
    script = f"d = {str(tmp_path)!r}\n" + r"""
from pathlib import Path
import rainbowmatch as rm
d = Path(d)
g = rm.build_graph(3, [(0, 1, 1), (1, 2, 2)])
rm.dump_graph(g, d / "g.txt")
assert rm.load_graph(d / "g.txt") == g
(d / "c.txt").write_bytes("# caf\u00e9\ng 2\ne 0 1 1\n".encode())
assert rm.load_graph(d / "c.txt").edges == ((0, 1, 1),)
square = rm.cyclic_square(3)
(d / "s.txt").write_bytes(("# \u00b5\n" + rm.dumps_square(square)).encode())
assert rm.load_square(d / "s.txt") == square
"""
    proc = fresh_interpreter(script, "-X", "warn_default_encoding",
                             "-W", "error::EncodingWarning")
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=100)
@given(proper_graphs())
def test_round_trip_any_graph_both_formats(g):
    assert parse_graph(dumps_graph(g)) == g
    assert parse_graph(dumps_graph(g, fmt="json")) == g


MUTATIONS = ("comment", "blank", "indent", "join", "split", "plus", "zero",
             "repeat", "break")

# Every line break of str.splitlines(), the line reader's split.
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029")


@st.composite
def mutated_dumps(draw):
    """Text dumps of proper graphs with comment and blank lines, indents,
    two records on one line, a record split over two lines, '+3' and '03'
    fields, repeated records and a line break inside a record, each line
    ended by any line break of str.splitlines()."""
    lines = dumps_graph(draw(proper_graphs())).splitlines()
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(" ")
        if kind == "comment":
            lines.insert(i, "# note")
        elif kind == "blank":
            lines.insert(i, "")
        elif kind == "indent":
            lines[i] = "  " + lines[i]
        elif kind == "join" and i + 1 < len(lines):
            lines[i:i + 2] = [lines[i] + " " + lines[i + 1]]
        elif kind == "split" and len(fields) > 1:
            lines[i:i + 1] = [" ".join(fields[:-1]), fields[-1]]
        elif kind in ("plus", "zero") and len(fields) > 1:
            j = draw(st.integers(1, len(fields) - 1))
            fields[j] = ("+" if kind == "plus" else "0") + fields[j]
            lines[i] = " ".join(fields)
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "break" and len(fields) > 1:
            j = draw(st.integers(1, len(fields) - 1))
            lines[i] = (" ".join(fields[:j]) + draw(st.sampled_from(LINE_BREAKS))
                        + " ".join(fields[j:]))
    ends = draw(st.lists(st.sampled_from(LINE_BREAKS),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300)
@given(mutated_dumps())
def test_plain_route_agrees_with_the_line_reader(text):
    # The line reader alone is the reference: same graph, or same error
    # type and message.
    parsed = outcome(lambda: parse_graph(text))
    with mock.patch.object(rio, "_parse_text", rio._parse_lines):
        reference = outcome(lambda: parse_graph(text))
    assert parsed == reference
    if isinstance(parsed, EdgeColoredGraph):
        assert_packed_table(parsed)
        assert_packed_table(reference)


def test_line_breaks_are_every_break_of_splitlines():
    breaks = {c for c in map(chr, range(sys.maxunicode + 1))
              if len(f"a{c}b".splitlines()) == 2}
    assert breaks == set("".join(LINE_BREAKS))


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=[
    "-".join(f"U+{ord(c):04X}" for c in brk) for brk in LINE_BREAKS])
def test_a_line_break_inside_a_record_goes_to_the_line_reader(brk):
    # Token and record counts match a plain file here; only the break
    # cuts the record, and the line reader names the line it cut.
    with pytest.raises(ParseError) as exc:
        parse_graph(f"g 2\ne 0{brk}1 1\n")
    assert str(exc.value) == "line 2: expected 'e <u> <v> <colour>'"


@settings(max_examples=100)
@given(proper_graphs(), st.sampled_from(["\n", "\r\n"]))
def test_plain_dumps_skip_the_line_reader(g, end):
    text = dumps_graph(g).replace("\n", end)
    with mock.patch.object(rio, "_parse_lines", side_effect=AssertionError):
        assert parse_graph(text) == g
