"""Benchmark of the rainbowmatch package: one workload per call.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads: verify, exact, latin, certify (see README.md in this directory).
The workload runs in a fresh interpreter (``worker.py``), single-threaded,
in a closed loop: each call into the package starts after the previous one
returned.  Set-up (interpreter start, package import, input generation and
warm-up) is timed in SETUP_STARTS fresh interpreters that exit when set
up, each time scaled by the reference process starts made just before and
just after it, and reported as the median; then one more interpreter sets
up and measures.  With ``--trace 0`` the output gives the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_STARTS = 12         # set-up-only interpreters timed for setup_s
RUN_DEADLINE_S = 170.0    # the whole command must end within 180 s
TAIL_ABOVE = 10           # the tail percentile has this many samples above it


def _child_cmd(root: Path, args, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def child_env() -> dict:
    """Every process of a run gets one BLAS thread, so the workload's
    process is single-threaded."""
    return dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_child(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Start one worker; return its raw set-up time (start to ``ready``)
    and the rest of its standard output.  The worker is always waited for."""
    env = child_env()
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - start
        if line.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - perf_counter()))
            raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return setup_s, rest


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_ABOVE values above it: (value, percentile)."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_ABOVE - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted([*(root / "src" / "rainbowmatch").glob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_repeat(root: Path, args, counts: dict) -> str | None:
    """Deterministic counts must equal those of every earlier run, traced
    or not, of the same code, workload and seed in this checkout."""
    store = root / ".bench_out" / "counts"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{args.workload}-{args.seed}-{source_hash(root)}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            return f"deterministic counts differ from the run recorded in {path.name}"
        return None
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


def timed_setups(root: Path, args, deadline: float) -> list[float]:
    """SETUP_STARTS set-up-only starts, each scaled by the reference
    process starts (see reference.py) just before and just after it, like
    a call's time by its speed references."""
    refs = [reference.timed_start(child_env())]
    setup = []
    for _ in range(SETUP_STARTS):
        raw, _rest = run_child(_child_cmd(root, args, True), deadline)
        refs.append(reference.timed_start(child_env()))
        setup.append(raw * 2 * reference.START_NOMINAL_S / (refs[-2] + refs[-1]))
    return setup


def end_to_end(report: dict, setup: list[float]) -> tuple[dict, list[str]]:
    times = report["item_ms"]
    tail_ms, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (1e3 * report["units"] / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    attempted, failed = report["attempted"], report["failed"]
    notes = [
        f"setup_s: median of {len(setup)} set-up-only interpreter starts, "
        f"each scaled by the reference starts around it (python3 -c "
        f"'import numpy' = {reference.START_NOMINAL_S} s); import "
        f"{report['import_s']:.4f} s unscaled in the measuring one",
        f"each item's time is its median over {report['passes']} calls, each "
        f"scaled by the {report['reference']} speed reference",
        f"items_per_s = {report['units']} units / sum of item times",
        f"item_p50_ms / item_tail_ms: over {len(times)} items; "
        f"the tail is p{tail_pct:.1f}, {TAIL_ABOVE} items above it",
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} items)",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rainbowmatch" / "__init__.py").is_file():
        print("error: run from the root of a rainbowmatch checkout "
              "(src/rainbowmatch not found)", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_DEADLINE_S
    try:
        setup = timed_setups(root, args, deadline)
        _setup_s, out = run_child(_child_cmd(root, args, False), deadline)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = json.loads(out.strip().splitlines()[-1])

    errors = list(report["errors"])
    repeat_error = check_counts_repeat(root, args, report["counts"])
    if repeat_error:
        errors.append(repeat_error)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    if args.trace:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": report["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        notes = ["per-layer values are per pass over the workload's items; "
                 "times are means over the traced passes"]
        notes += [f"layer {name} {value} (printed only, not a declared metric)"
                  for name, value in report["per_layer"].items() if name not in metrics]
    else:
        metrics, notes = end_to_end(report, setup)
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name} {value} {m['unit']}")
    for note in notes:
        print(note)
    for key, value in report["counts"].items():
        print(f"count {key} {value} (per pass, identical on every pass)")
    for label, item_counts in report["fixed_counts"].items():
        for key, value in item_counts.items():
            print(f"count {label} {key} {value} (seed-independent input)")
    for err in errors[:20]:
        print(f"FAILED {err}")
    print(json.dumps({"correct": not errors, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
