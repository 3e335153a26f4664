"""Run workloads over several seeds and report how steady each metric is.

Run from the root of a checkout::

    python3 perfbench/spread.py --workloads verify,exact,latin,certify \
        --seeds 1-10 --sets 2

Each (set, workload, seed) is one call of run.py with --trace 0, one after
another.  For every end-to-end metric the script prints the median over the
seeds and the spread, the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json.  Every run measures for run_seconds
from BENCHMARK.json.  A spread above its bound, a later set's median worse
than the first set's by more than the bound, an incorrect run or a failed
item is reported as FAIL, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="verify,exact,latin,certify")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the whole seed list this many times")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    failures = 0
    for workload in args.workloads.split(","):
        medians: dict[str, float] = {}
        for set_no in range(1, args.sets + 1):
            runs = []
            for seed in seeds:
                result = run_once(workload, seed, seconds)
                runs.append(result)
                values = " ".join(f"{k}={v['value']:.5g}"
                                  for k, v in result["metrics"].items())
                print(f"{workload} set {set_no} seed {seed} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}",
                      flush=True)
                if not result["correct"] or result["failed"]:
                    failures += 1
                    print("FAIL: incorrect run")
            for name, m in bounds.items():
                median, width = spread([r["metrics"][name]["value"] for r in runs])
                verdict = "ok"
                if width > m["bound"]:
                    verdict = "FAIL: spread above bound"
                if name in medians:
                    change = (median - medians[name]) / medians[name]
                    worse = change if m["better"] == "lower" else -change
                    if worse > m["bound"]:
                        verdict = f"FAIL: median {worse:+.1%} worse than set 1"
                else:
                    medians[name] = median
                if verdict != "ok":
                    failures += 1
                print(f"{workload} set {set_no} {name}: median {median:.6g} "
                      f"{m['unit']}, spread {width:.3f} (bound {m['bound']}, "
                      f"third {m['bound'] / 3:.3f}) {verdict}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
