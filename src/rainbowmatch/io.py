"""Graph serialisation: a line-based text format and a JSON equivalent.

Text format::

    # comment lines and blank lines are ignored
    g <n>
    e <u> <v> <colour>

JSON format: ``{"n": <int>, "edges": [[u, v, colour], ...]}``.

Both emitters are canonical (edges sorted, fixed layout), so parse/dump
round trips are byte-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError
from .graphs import EdgeColoredGraph, build_graph


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
