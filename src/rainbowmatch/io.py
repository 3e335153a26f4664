"""Serialisation: graphs in a line-based text format and a JSON
equivalent, and result records as JSON values or CSV tables.

Text format::

    # comment lines and blank lines are ignored
    g <n>
    e <u> <v> <colour>

JSON format: ``{"n": <int>, "edges": [[u, v, colour], ...]}``.

Both emitters are canonical (edges sorted, fixed layout), so parse/dump
round trips are byte-exact.

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


def _parse_text(text: str) -> EdgeColoredGraph:
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
    return parse_graph(Path(path).read_text())


def dump_graph(graph: EdgeColoredGraph, path, fmt: str = "text") -> None:
    Path(path).write_text(dumps_graph(graph, fmt))


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
