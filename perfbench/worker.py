"""One workload in a fresh interpreter: set up, measure, check, report.

run.py starts this script; it is not meant to be run by hand::

    python3 perfbench/worker.py --root CHECKOUT --workload W --seed N \
        --seconds S --trace 0|1 [--setup-only]

Set-up is the package import, building the workload's inputs from the
seed and one warm-up call of its cheapest items.  The script prints
``ready`` when set-up is done, so the parent can time it from interpreter
start.  Unless ``--setup-only`` is given it then measures whole passes over
the workload's items, one call at a time, until ``--seconds`` have passed
(at least MIN_PASSES passes), and prints one JSON line with the results.
With ``--trace 1`` untraced and traced passes alternate.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

MODULES = ("auditor", "campaigns", "cli", "engine", "generators", "io", "latin")
API_NAMES = ("main", "parse_graph", "solve_decision", "max_rainbow_matching",
             "count_rainbow_matchings", "audit_stuck_state",
             "certify_counting_bound", "count_transversals", "latin_to_graph",
             "graph_to_latin", "is_rainbow_matching", "LatinSquare")
MIN_PASSES = 2


def run_pass(items, ref_kind: str, spans=None) -> dict:
    """Call every item once, in order; each call starts after the previous
    one returned.  Only the calls are timed, not the checks.  The speed
    reference is timed between calls, and each call's time is scaled by the
    mean of the references just before and after it.  With a tracer's
    ``spans``, each call's span range, raw time and scale are kept too.
    ``own_s`` is the measured raw time of the references and checks."""
    nominal = reference.nominal(ref_kind)
    times: dict[str, float] = {}
    own_start = perf_counter()
    refs = [reference.timed_reference(ref_kind)]
    own_s = perf_counter() - own_start
    calls = []
    counts: dict[str, dict] = {}
    errors = []
    for item in items:
        first = len(spans) if spans is not None else 0
        start = perf_counter()
        try:
            out, err = item.call(), None
        except Exception as exc:  # a failed item is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        refs.append(reference.timed_reference(ref_kind))
        scale = 2 * nominal / (refs[-2] + refs[-1])
        if spans is not None:
            calls.append((first, len(spans), end - start, scale))
        if err is None:
            times[item.label] = (end - start) * scale
            err, counts[item.label] = item.check(out)
        if err is not None:
            errors.append(f"{item.label}: {err}")
        own_s += perf_counter() - end
    return {"times": times, "counts": counts, "errors": errors, "calls": calls,
            "own_s": own_s, "scale": nominal / statistics.median(refs),
            "attempted": len(items), "failed": len(errors)}


def item_times(items, passes) -> list[float]:
    """Each item's median time over the passes, in item order."""
    return [statistics.median(p["times"][it.label] for p in passes
                              if it.label in p["times"])
            for it in items if any(it.label in p["times"] for p in passes)]


def measure(items, seconds: float, ref_kind: str, tracer=None, install=None) -> dict:
    """Whole passes until ``seconds`` have passed.  With a tracer, untraced
    and traced passes alternate, so both see the same host phases."""
    passes, traced = [], []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(run_pass(items, ref_kind))
        if tracer is not None:
            install()
            wall = perf_counter()
            try:
                traced.append(run_pass(items, ref_kind, tracer.spans))
            finally:
                tracer.uninstall()
            traced[-1]["wall_s"] = perf_counter() - wall
    return {"passes": passes, "traced": traced}


def summarise_counts(passes) -> tuple[dict, list[str]]:
    """Per-pass totals of the deterministic counts, and an error for each
    pass whose per-item counts differ from the first pass."""
    errors = []
    first = passes[0]["counts"]
    for i, p in enumerate(passes[1:], start=2):
        if p["counts"] != first:
            errors.append(f"pass {i}: deterministic counts differ from pass 1")
    totals = Counter()
    for item_counts in first.values():
        totals.update(item_counts)
    return dict(sorted(totals.items())), errors


def per_layer(items, result, tracer, import_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes: counts from the first one
    (all must agree), times as means over the passes.  Span times are
    scaled like their calls; the pass wall and the benchmark's own time
    (references and checks, timed separately) by the pass's median
    reference.  ``trace.accounted_frac`` is the share of the raw pass wall
    covered by the timed calls and the benchmark's own time, and
    ``trace.glue_frac`` the share of raw call time outside any span."""
    errors = []
    exact_runs, timed_runs = [], []
    for p in result["traced"]:
        calls, self_s, total_s, counts = tracing.layer_totals(tracer.spans, p["calls"])
        call_s = sum(c[2] for c in p["calls"])
        root_s = sum(s[3] - s[2] for first, last, _raw, _scale in p["calls"]
                     for s in tracer.spans[first:last] if s[4] == -1)
        exact, timed = tracing.per_layer_metrics(calls, self_s, total_s, counts)
        exact["trace.spans"] = sum(c[1] - c[0] for c in p["calls"])
        timed["bench.self_s"] = p["own_s"] * p["scale"]
        timed["trace.wall_s"] = p["wall_s"] * p["scale"]
        timed["trace.accounted_frac"] = (call_s + p["own_s"]) / p["wall_s"]
        timed["trace.glue_frac"] = (call_s - root_s) / call_s
        exact_runs.append(exact)
        timed_runs.append(timed)
    if any(e != exact_runs[0] for e in exact_runs[1:]):
        errors.append("per-layer counts differ between traced passes")
    metrics = dict(exact_runs[0])
    for key in timed_runs[0]:
        metrics[key] = statistics.fmean(t[key] for t in timed_runs)
    untraced = sum(item_times(items, result["passes"]))
    traced = sum(item_times(items, result["traced"]))
    metrics.update({
        "setup.import_s": import_s,
        "trace.traced_s": traced,
        "trace.untraced_s": untraced,
        "trace.overhead_ratio": traced / untraced,
    })
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    start = perf_counter()
    import rainbowmatch
    import rainbowmatch.cli
    import_s = perf_counter() - start
    modules = {name: getattr(rainbowmatch, name) for name in MODULES}
    api = types.SimpleNamespace(
        NON_BINDING_CHECKS=rainbowmatch.cli.NON_BINDING_CHECKS,
        **{name: getattr(rainbowmatch.cli if name == "main" else rainbowmatch, name)
           for name in API_NAMES})
    ref_kind = workloads.REFERENCE[args.workload]

    workdir = root / ".bench_out" / f"work-{args.workload}-{args.seed}-{args.trace}"
    try:
        items = workloads.build_items(args.workload, api, args.seed, workdir)
        warm = run_pass(workloads.warmup_items(args.workload, items), ref_kind)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = tracing.Tracer() if args.trace else None
        install = (lambda: tracer.install(api, modules)) if tracer else None
        result = measure(items, args.seconds, ref_kind, tracer, install)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"] + result["traced"]
    counts, errors = summarise_counts(passes)
    errors = warm["errors"] + [e for p in passes for e in p["errors"]] + errors
    report = {
        "import_s": import_s,
        "reference": ref_kind,
        "passes": len(result["passes"]),
        "item_ms": [1e3 * t for t in item_times(items, result["passes"])],
        "units": sum(it.units for it in items),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "counts": counts,
        "fixed_counts": {it.label: passes[0]["counts"][it.label]
                         for it in items if it.fixed and it.label in passes[0]["counts"]},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["per_layer"], layer_errors = per_layer(items, result, tracer, import_s)
        errors += layer_errors
        (root / ".bench_out").mkdir(exist_ok=True)
        tracer.write(root / ".bench_out" / f"spans-{args.workload}-{args.seed}.tsv")
    report["errors"] = errors
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
