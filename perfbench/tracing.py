"""Spans at the package's module boundaries, and the per-layer metrics.

The traced run replaces each public function with a wrapper under the name
its caller imported it by: ``campaigns.solve_decision`` is the solver as
the campaigns module calls it, ``bench.parse_graph`` the parser as this
benchmark calls it.  Every call records a span (name, layer, start, end,
parent span, request) and, for some layers, counts read off the result.
A layer's self time is its spans' time minus their child spans.  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

ENGINE_RULES = ("direct", "mono", "exchange-1", "exchange-2", "exchange-3",
                "vertex-reduce")


def _solve_counts(target_arg):
    def counts(args, res):
        events = res.trace
        out = {"nodes": res.nodes_explored}
        if target_arg is None:
            out["nodes_to_best"] = events[-1].node if events else 0
        else:
            k = args[target_arg]
            out["nodes_to_witness"] = next(
                (e.node for e in events if e.event == "incumbent" and e.size >= k), 0)
        return out
    return counts


def _engine_counts(args, res):
    out = Counter(nodes=res.nodes_explored, reached=int(res.size >= args[1]))
    for step in res.trace:
        if step.added and not step.note and step.rule != "R-seed":
            out["fires." + step.rule[2:]] += 1
    return out


def _write_counts(args, paths):
    return {"bytes": sum(p.stat().st_size for p in paths)}


# (module, attribute, span name, layer, counts from (args, result)).  A
# module of None is the benchmark's own api namespace.
WRAPS = (
    (None, "main", "bench.main", "cli", None),
    ("cli", "run_campaign", "cli.run_campaign", "campaigns.run",
     lambda a, r: {"instances": len(r.records)}),
    ("cli", "write_campaign_files", "cli.write_campaign_files",
     "campaigns.write", _write_counts),
    ("campaigns", "random_graph_min_degree", "campaigns.random_graph_min_degree",
     "generators", None),
    ("campaigns", "greedy_proper_coloring", "campaigns.greedy_proper_coloring",
     "generators", None),
    ("campaigns", "solve_decision", "campaigns.solve_decision", "solver.decide",
     _solve_counts(1)),
    ("campaigns", "max_rainbow_matching", "campaigns.max_rainbow_matching",
     "solver.max", _solve_counts(None)),
    ("campaigns", "run_engine", "campaigns.run_engine", "engine", _engine_counts),
    ("campaigns", "dumps_graph", "campaigns.dumps_graph", "io.dump", None),
    ("engine", "rainbow_matching_at_least", "engine.rainbow_matching_at_least",
     "solver.decide", None),
    ("auditor", "run_engine", "auditor.run_engine", "engine", _engine_counts),
    ("generators", "build_graph", "generators.build_graph", "graphs.build", None),
    ("latin", "build_graph", "latin.build_graph", "graphs.build", None),
    ("io", "build_graph", "io.build_graph", "graphs.build", None),
    (None, "parse_graph", "bench.parse_graph", "io.parse",
     lambda a, r: {"bytes": len(a[0])}),
    (None, "solve_decision", "bench.solve_decision", "solver.decide",
     _solve_counts(1)),
    (None, "max_rainbow_matching", "bench.max_rainbow_matching", "solver.max",
     _solve_counts(None)),
    (None, "count_rainbow_matchings", "bench.count_rainbow_matchings",
     "solver.count", None),
    (None, "audit_stuck_state", "bench.audit_stuck_state", "auditor.audit", None),
    (None, "certify_counting_bound", "bench.certify_counting_bound",
     "auditor.certify", lambda a, r: {"tuples": r.tuples_checked}),
    (None, "count_transversals", "bench.count_transversals", "latin.count",
     lambda a, r: {"transversals": r}),
    (None, "latin_to_graph", "bench.latin_to_graph", "latin.encode", None),
    (None, "graph_to_latin", "bench.graph_to_latin", "latin.encode", None),
)


class Tracer:
    """Records spans in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        # Each span: [name, layer, start, end, parent, request, counts].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self._saved: list[tuple] = []

    def install(self, api, modules: dict) -> None:
        for mod_name, attr, name, layer, counts in WRAPS:
            owner = api if mod_name is None else modules[mod_name]
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, layer, counts))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, layer, counts):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not stack:
                self.request += 1
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counts is not None:
                span[6] = counts(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tlayer\tstart\tend\tcounts\n")
            for i, (name, layer, start, end, parent, req, counts) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{req}\t{name}\t{layer}\t{start:.9f}\t"
                         f"{end:.9f}\t{json.dumps(dict(counts or {}), sort_keys=True)}\n")


def layer_totals(spans, calls_of_pass):
    """Calls, self seconds, total seconds and summed counts per layer over
    one pass.  ``calls_of_pass`` holds (first span, end span, raw seconds,
    scale) for each item call; a span's time is multiplied by its call's
    scale, like the call's end-to-end time."""
    calls, self_s, total_s, counts = Counter(), Counter(), Counter(), Counter()
    for first, last, _raw, scale in calls_of_pass:
        for i in range(first, last):
            _name, layer, start, end, parent, _req, extra = spans[i]
            dur = (end - start) * scale
            calls[layer] += 1
            total_s[layer] += dur
            self_s[layer] += dur
            if parent >= first:
                self_s[spans[parent][1]] -= dur
            for key, value in (extra or {}).items():
                counts[f"{layer}.{key}"] += value
    return calls, self_s, total_s, counts


def per_layer_metrics(calls, self_s, total_s, counts) -> tuple[dict, dict]:
    """(deterministic counts, timings) for one pass, named as in
    BENCHMARK.json."""
    nodes = counts["solver.decide.nodes"] + counts["solver.max.nodes"]
    search_s = self_s["solver.decide"] + self_s["solver.max"]
    engine_calls = calls["engine"]
    exact = {
        "cli.calls": calls["cli"],
        "campaigns.instances": counts["campaigns.run.instances"],
        "campaigns.bytes_written": counts["campaigns.write.bytes"],
        "generators.calls": calls["generators"],
        "graphs.build_calls": calls["graphs.build"],
        "io.parse_calls": calls["io.parse"],
        "io.bytes_parsed": counts["io.parse.bytes"],
        "solver.decide.calls": calls["solver.decide"],
        "solver.decide.nodes": counts["solver.decide.nodes"],
        "solver.decide.nodes_to_witness": counts["solver.decide.nodes_to_witness"],
        "solver.max.calls": calls["solver.max"],
        "solver.max.nodes": counts["solver.max.nodes"],
        "solver.max.nodes_to_best": counts["solver.max.nodes_to_best"],
        "solver.count.calls": calls["solver.count"],
        "engine.calls": engine_calls,
        "engine.exchange_nodes": counts["engine.nodes"],
        "engine.reached_frac": counts["engine.reached"] / engine_calls
        if engine_calls else 0.0,
        "auditor.audit.calls": calls["auditor.audit"],
        "auditor.certify.calls": calls["auditor.certify"],
        "auditor.certify.tuples": counts["auditor.certify.tuples"],
        "latin.count.calls": calls["latin.count"],
        "latin.transversals": counts["latin.count.transversals"],
    }
    exact.update({f"engine.fires.{rule}": counts[f"engine.fires.{rule}"]
                  for rule in ENGINE_RULES})
    timed = {
        "cli.self_s": self_s["cli"],
        "campaigns.self_s": self_s["campaigns.run"] + self_s["campaigns.write"],
        "campaigns.write_s": total_s["campaigns.write"],
        "generators.self_s": self_s["generators"],
        "graphs.build_s": self_s["graphs.build"],
        "io.parse_s": self_s["io.parse"] + self_s["io.dump"],
        "solver.decide.self_s": self_s["solver.decide"],
        "solver.max.self_s": self_s["solver.max"],
        "solver.count.self_s": self_s["solver.count"],
        "solver.us_per_node": 1e6 * search_s / nodes if nodes else 0.0,
        "engine.self_s": self_s["engine"],
        "auditor.audit.self_s": self_s["auditor.audit"],
        "auditor.certify.self_s": self_s["auditor.certify"],
        "auditor.certify.tuples_per_s":
            counts["auditor.certify.tuples"] / self_s["auditor.certify"]
            if self_s["auditor.certify"] else 0.0,
        "latin.count.self_s": self_s["latin.count"],
        "latin.encode_s": self_s["latin.encode"],
    }
    return exact, timed
