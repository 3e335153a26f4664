"""Serialisation: graphs in a line-based text format and a JSON
equivalent, and result records as JSON values or CSV tables.

Text format::

    # comment lines and blank lines are ignored
    g <n>
    e <u> <v> <colour>

JSON format: ``{"n": <int>, "edges": [[u, v, colour], ...]}``.

Both emitters are canonical (edges sorted, fixed layout), so parse/dump
round trips are byte-exact.

A plain text file, a ``g`` line and then one ``e`` record per line with no
comment, is read from a single whitespace split with each distinct field
converted to ``int`` once.  Any other text, and any field ``int`` rejects,
goes to the line-by-line reader.  The plain route counts the line breaks
of the raw text to check that the split lines up with the lines the
line-by-line reader would see, so both routes read the same records; the
line-by-line reader is the only one that raises :class:`ParseError` for the
text itself, so every message and line number comes from it.

A result record is a dataclass.  :func:`to_json` turns one, or any value
holding records, into plain JSON values; :func:`records_to_csv` writes a
list of them as a table whose header is the dataclass's field order.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import operator
from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .graphs import EdgeColoredGraph, Matching, build_graph


def parse_graph(text: str) -> EdgeColoredGraph:
    """Parse either format, sniffing JSON by a leading brace.

    Malformed input, or a value the graph rejects (a vertex out of range, a
    colour below 1, a non-integer), raises :class:`ParseError`; a loop, a
    repeated pair or an improper colouring raises the graph's own error."""
    parse = _parse_json if text.lstrip().startswith("{") else _parse_text
    try:
        return parse(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


class _Ints(dict):
    """Token to ``int`` memo for one parse: each distinct token is
    converted once."""

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def _parse_text(text: str) -> EdgeColoredGraph:
    records = _plain_records(text)
    if records is None:
        return _parse_lines(text)
    return build_graph(*records)


def _plain_records(text: str) -> tuple[int, list[tuple[int, int, int]]] | None:
    """``n`` and the edge triples of a plain text file, or None for any
    other text.  Its token list is gone before the graph is built."""
    tokens = text.split()
    k, rest = divmod(len(tokens) - 2, 4)
    # The line reader splits with str.splitlines().  With every '\r' in a
    # '\r\n' and none of its other breaks (the last test), its lines end at
    # the '\n's: the count test gives k + 1 lines, and each '\ne ' starts
    # one of the k after the first with an 'e' field.  Every line break is
    # whitespace to split(), so the lines cut the tokens in order.  Say the
    # first line starts with a 'g' field, and int() takes token 1 and every
    # token in tokens[3::4], [4::4] and [5::4].  Then the k 'e' starts can
    # only be the k tokens at 2, 6, 10, ...: the header is tokens[0:2] and
    # each other line one whole record, as the line reader takes them.  A
    # '#' could only sit in a token that int() rejects.
    if (rest or not text.startswith("g ")
            or text.count("\n") != k + text.endswith("\n")
            or text.count("\ne ") != k
            or "\r" in text and text.count("\r") != text.count("\r\n")
            or any(map(text.__contains__,
                       "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))):
        return None
    field = _Ints().__getitem__
    try:
        return int(tokens[1]), list(zip(map(field, tokens[3::4]),
                                        map(field, tokens[4::4]),
                                        map(field, tokens[5::4])))
    except ValueError:
        return None


def _parse_lines(text: str) -> EdgeColoredGraph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "e":
            if n is None:
                raise ParseError("edge record before 'g' header", lineno)
            if len(parts) != 4:
                raise ParseError("expected 'e <u> <v> <colour>'", lineno)
            try:
                edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
            except ValueError:
                for token in parts[1:]:
                    _int(token, lineno)   # raises on the first bad field
                raise
        elif parts[0] == "g":
            if n is not None:
                raise ParseError("repeated 'g' header", lineno)
            if len(parts) != 2:
                raise ParseError("expected 'g <n>'", lineno)
            n = _int(parts[1], lineno)
        else:
            raise ParseError(f"unknown record type {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing 'g <n>' header")
    return build_graph(n, edges)


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", lineno) from None


def _parse_json(text: str) -> EdgeColoredGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError("JSON graph must be an object with 'n' and 'edges'")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 3 for e in edges):
        raise ParseError("'edges' must be a list of [u, v, colour] triples")
    return build_graph(obj["n"], [tuple(e) for e in edges])


def dumps_graph(graph: EdgeColoredGraph, fmt: str = "text") -> str:
    if fmt == "text":
        lines = [f"g {graph.n}"]
        lines.extend(f"e {u} {v} {c}" for u, v, c in graph.edges)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj = {"edges": [list(e) for e in graph.edges], "n": graph.n}
        return json.dumps(obj, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def load_graph(path) -> EdgeColoredGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def dump_graph(graph: EdgeColoredGraph, path, fmt: str = "text") -> None:
    Path(path).write_text(dumps_graph(graph, fmt), encoding="utf-8")


def to_json(value):
    """Plain JSON value of a record: a dataclass becomes a dict of its
    fields, a matching its edge list, a set a sorted list, a tuple a list
    and a fraction its string.  A ``to_json_dict`` method takes precedence."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Matching):
        return [list(e) for e in value.edges]
    if isinstance(value, (set, frozenset)):
        return [to_json(v) for v in sorted(value)]
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return f"{value:.6f}"


def records_to_csv(records, cls, **lead) -> str:
    """CSV table of dataclass records: the constant ``lead`` columns, then
    the fields of ``cls`` in order.  ``None`` is written as an empty cell; a
    field annotated bool is written 1 or 0, one annotated float with six
    decimals."""
    fields = dataclasses.fields(cls)
    values = operator.attrgetter(*(f.name for f in fields))
    # csv.writer already writes None as an empty cell; sending every cell
    # through _cell would double the writer's time.
    typed = [i for i, f in enumerate(fields, len(lead))
             if "bool" in str(f.type) or "float" in str(f.type)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*lead, *(f.name for f in fields)])
    lead_cells = tuple(lead.values())
    for record in records:
        row = [*lead_cells, *values(record)]
        for i in typed:
            row[i] = _cell(row[i])
        writer.writerow(row)
    return buf.getvalue()
