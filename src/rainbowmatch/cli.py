"""Command-line driver.

Subcommands: solve, verify, certify, latin, audit.  Exit codes:
0 success, 1 usage error, 2 parse or validation error, 3 property
violation found.  Checks documented as diagnostic or conditional never
affect the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .auditor import (
    NON_BINDING_CHECKS,
    applicable_rules,
    audit_state,
    audit_stuck_state,
    certify_counting_bound,
    pick_mono_class,
)
from .campaigns import (
    DEFAULT_NODE_BUDGET,
    CampaignConfig,
    run_campaign,
    write_campaign_files,
)
from .engine import run_engine, trace_to_json_lines
from .errors import Error, NotStuck, ParseError
from .graphs import Matching, min_degree
from .io import dumps_graph, load_graph, to_json
from .latin import (
    count_transversals,
    cyclic_square,
    dumps_square,
    latin_to_graph,
    load_square,
)
from .generators import random_latin
from .solver import count_rainbow_matchings, max_rainbow_matching


def _parse_int_list(text: str) -> list[int]:
    """Accept "5", "2,3,4" or "2..200"; an empty list is an error."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"empty list: {text!r}")
    return values


def _parse_triples(text: str) -> list[tuple[int, int, int]]:
    """Edge triples "u,v,c" separated by whitespace or semicolons."""
    out = []
    for chunk in text.replace(";", " ").split():
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ValueError(f"bad edge triple: {chunk!r}")
        out.append((int(parts[0]), int(parts[1]), int(parts[2])))
    return out


def cmd_solve(args) -> int:
    graph = load_graph(args.file)
    res = max_rainbow_matching(graph, node_budget=args.budget)
    engine_res = None
    target = args.target if args.target is not None else min_degree(graph)
    if args.engine:
        engine_res = run_engine(graph, target, args.depth,
                                node_budget=args.budget)
    if args.format == "json":
        payload = {
            "n": graph.n,
            "edges": len(graph.edges),
            "min_degree": min_degree(graph),
            "optimum" if res.optimal else "best_found": res.size,
            "optimal": res.optimal,
            "witness": to_json(res.best),
            "nodes": res.nodes_explored,
        }
        if engine_res is not None:
            payload["engine"] = {
                "target": target,
                "size": engine_res.size,
                "steps": to_json(engine_res.trace),
                "gap": (res.size - engine_res.size) if res.optimal else None,
            }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(f"n={graph.n} m={len(graph.edges)} min_degree={min_degree(graph)} "
          f"colours={len(graph.colors)}")
    if res.optimal:
        print(f"optimum {res.size}")
    else:
        print(f"best_found {res.size} (node budget exceeded)")
    print("witness: " + " ".join(f"({u},{v},{c})" for u, v, c in res.best.edges))
    print(f"nodes {res.nodes_explored}")
    if engine_res is not None:
        gap = f" gap {res.size - engine_res.size}" if res.optimal else ""
        print(f"engine {engine_res.size} of target {target}{gap}")
        if args.trace:
            print(trace_to_json_lines(engine_res.trace), end="")
    return 0


def cmd_verify(args) -> int:
    config = CampaignConfig(
        deltas=tuple(_parse_int_list(args.deltas)),
        n_rule=args.n_rule,
        samples=args.samples,
        recolorings=args.recolorings,
        master_seed=args.seed,
        engine_depth=args.depth,
        node_budget=args.budget,
        extra_edge_prob=args.prob,
    )
    result = run_campaign(config, out_dir=args.out)
    if args.out is not None:
        write_campaign_files(result, args.out, args.format)
    print(f"config {result.config_hash}")
    for cell in result.cells:
        print(f"delta={cell.delta} n={cell.n} instances={cell.instances} "
              f"ok={cell.ok} failures={cell.failures} "
              f"inconclusive={cell.inconclusive} "
              f"success={cell.success_fraction:.6f} "
              f"engine={cell.engine_success_fraction:.6f}")
    for v in result.violations:
        print(v)
    if result.violations:
        print(f"{len(result.violations)} violation(s) found", file=sys.stderr)
        return 3
    return 0


def cmd_certify(args) -> int:
    failures = 0
    for delta in _parse_int_list(args.deltas):
        res = certify_counting_bound(delta)
        r, s, a, t = res.worst_tuple
        status = "holds" if res.holds else "FAILS"
        print(f"delta={delta} {status} worst_n={res.worst_n} "
              f"threshold={res.worst_n + res.margin} margin={res.margin} "
              f"worst=(good={r},nice={s},class={a},touched={t}) "
              f"tuples={res.tuples_checked}")
        if not res.holds:
            failures += 1
    if failures:
        print(f"{failures} delta value(s) failed certification", file=sys.stderr)
        return 3
    return 0


def cmd_latin(args) -> int:
    sources = [x is not None for x in (args.file, args.cyclic, args.random)]
    if sum(sources) != 1:
        raise ValueError("choose exactly one of --file, --cyclic, --random")
    if args.random is not None:
        if args.samples < 1:
            raise ValueError(f"samples must be at least 1, got {args.samples}")
        zero_odd = 0
        for i in range(args.samples):
            square = random_latin(args.random, args.seed + i)
            count = count_transversals(square)
            if args.crosscheck:
                other = count_rainbow_matchings(latin_to_graph(square), square.n)
                if other != count:
                    print(f"crosscheck mismatch on sample {i}: "
                          f"{count} vs {other}", file=sys.stderr)
                    print(dumps_square(square), end="", file=sys.stderr)
                    return 3
            if count == 0 and square.n % 2 == 1:
                zero_odd += 1
                print(f"sample {i}: odd order {square.n} with no transversal",
                      file=sys.stderr)
                print(dumps_square(square), end="", file=sys.stderr)
        print(f"order {args.random} samples {args.samples} "
              f"odd_zero_transversal {zero_odd}")
        return 3 if zero_odd else 0
    square = cyclic_square(args.cyclic) if args.cyclic is not None \
        else load_square(args.file)
    count = count_transversals(square)
    if args.crosscheck:
        other = count_rainbow_matchings(latin_to_graph(square), square.n)
        if other != count:
            print(f"crosscheck mismatch: {count} vs {other}", file=sys.stderr)
            return 3
    print(f"order {square.n} transversals {count}")
    if args.to_graph:
        print(dumps_graph(latin_to_graph(square)), end="")
    return 0


def cmd_audit(args) -> int:
    graph = load_graph(args.file)
    engine_res = None
    if args.matching is not None:
        matching = Matching(_parse_triples(args.matching))
        if args.mono_color is not None:
            mono = Matching([e for e in graph.edges if e[2] == args.mono_color])
        else:
            mono = pick_mono_class(graph, matching)
        report = audit_state(graph, matching, mono, args.target)
        rules = applicable_rules(graph, matching, report.delta, args.depth,
                                 args.budget)
    else:
        target = args.target if args.target is not None else min_degree(graph)
        try:
            report, engine_res = audit_stuck_state(
                graph, target, args.depth, node_budget=args.budget)
        except NotStuck as exc:
            print(f"not stuck: {exc}")
            return 0
        # The engine stops without a budget note only once direct, mono,
        # the exchange to this depth and vertex reduce all fail on its
        # state, so no rule applies there.
        rules = []
    payload = to_json(report)
    payload["applicable_rules"] = rules
    if engine_res is not None:
        payload["engine"] = {
            "target": target,
            "size": engine_res.size,
            "steps": to_json(engine_res.trace),
        }
    print(json.dumps(payload, sort_keys=True, indent=2))
    failed = [c.name for c in report.checks
              if not c.holds and c.name not in NON_BINDING_CHECKS]
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 3
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Every call returns the same instance, which every :func:`main` call in
    the process shares.  Parsing only reads it and fills a fresh namespace,
    and no default is mutable, so calls stay apart; callers must not
    mutate the parser.
    """
    parser = argparse.ArgumentParser(
        prog="rainbowmatch",
        description="Rainbow matchings in properly edge-coloured graphs: "
                    "exact solving, rule-engine search, structural audits, "
                    "counting-bound certification and Latin square bridges.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("solve", help="maximum rainbow matching of one instance")
    p.add_argument("file", help="graph file (text or JSON)")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget for the solver and for the engine")
    p.add_argument("--engine", action="store_true",
                   help="also run the rule engine and report its gap")
    p.add_argument("--target", type=int, default=None,
                   help="engine target size (default: minimum degree)")
    p.add_argument("--depth", type=int, default=3, help="max exchange depth")
    p.add_argument("--trace", action="store_true",
                   help="print the engine trace as JSON lines")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="seeded campaign checking the size "
                                      "guarantees with the exact solver")
    p.add_argument("--deltas", default="2,3,4",
                   help="minimum degrees, e.g. 2,3,4 or 2..5")
    p.add_argument("--n-rule", default="bound", dest="n_rule",
                   help="order rule: bound, bound+K, bound-K, fixed:N or chain "
                        "(the order the proof chain proves from)")
    p.add_argument("--samples", type=int, default=500,
                   help="random graphs per delta")
    p.add_argument("--recolorings", type=int, default=3,
                   help="extra colourings per graph")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--depth", type=int, default=3, help="engine exchange depth")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="node budget")
    p.add_argument("--prob", type=float, default=0.0,
                   help="extra edge probability")
    p.add_argument("--out", default=None, help="directory for result files")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="counting-bound certification per "
                                       "minimum degree: the exact maximum "
                                       "over tuples without nice pairs, "
                                       "which dominate all others")
    p.add_argument("deltas", help="e.g. 5, 2,3,4 or 2..200")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("latin", help="transversal counting and checks")
    p.add_argument("--file", default=None, help="square file")
    p.add_argument("--cyclic", type=int, default=None,
                   help="use the cyclic square of this order")
    p.add_argument("--random", type=int, default=None,
                   help="sample random squares of this order")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crosscheck", action="store_true",
                   help="compare against the rainbow perfect matching counter")
    p.add_argument("--to-graph", action="store_true", dest="to_graph",
                   help="also print the bipartite graph encoding")
    p.set_defaults(func=cmd_latin)

    p = sub.add_parser("audit", help="drive the engine to a stuck state "
                                     "and audit its structure")
    p.add_argument("file", help="graph file")
    p.add_argument("--target", type=int, default=None,
                   help="target size (default: minimum degree); with "
                        "--matching, its size plus one")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--budget", type=int, default=None,
                   help="node budget for the engine and the rule checks")
    p.add_argument("--matching", default=None,
                   help="audit this explicit matching instead of running "
                        "the engine; edge triples like '0,1,1 2,3,4'")
    p.add_argument("--mono-color", type=int, default=None, dest="mono_color",
                   help="colour of the comparison class (default: largest)")
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, 1 here.
        return 1 if exc.code == 2 else exc.code
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
