#!/usr/bin/env python3
"""Steadiness of the lpmem benchmark.

Runs every workload of BENCHMARK.json several times, each run in its own
process with its own seed, and prints for each workload and metric the
median, the quartiles and the run-to-run spread (interquartile range over
median, the quartiles as `statistics.quantiles(values, n=4)` gives them)
beside the metric's bound.

The verdict (the exit code) is the acceptance rule for a set of runs:
every run's outputs pass their checks; every spread except that of
`setup_s` is within its bound; every run fails the same share of its
operations; and, with `--sets 2`, no metric's second median is worse than
the first by more than its bound. A spread above a third of its bound is
marked as thin headroom but does not fail the verdict.

Run from the repository root:

    python3 perfbench/steady.py                 # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads explore
    python3 perfbench/steady.py --sets 2        # two sets, medians compared
    python3 perfbench/steady.py --runs 1 --trace 1   # per-layer table

With --runs 1 it is the one command that runs every workload and prints
every metric by name and unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = next((l for l in lines if l.startswith("workload ")), "")
    return result, wall, context


def run_set(bench, name, args, seconds, metrics, first_seed):
    """Runs one set of a workload. Returns each metric's values, whether
    every run passed its checks with one failed share, and that share."""
    values = {m["name"]: [] for m in metrics}
    shares, walls, ok = set(), [], True
    for i in range(args.runs):
        seed = first_seed + i
        result, wall, context = run_once(bench, name, seed, seconds, args.trace)
        walls.append(wall)
        if not result["correct"]:
            ok = False
            print(f"{name} seed {seed}: outputs failed their checks")
        shares.add(Fraction(result["failed"], result["attempted"]))
        for m in values:
            values[m].append(result["metrics"][m]["value"])
    print(f"\n== {name}: {args.runs} runs, seeds {first_seed}.."
          f"{first_seed + args.runs - 1}, {seconds} s each, "
          f"process wall {min(walls):.1f}-{max(walls):.1f} s")
    print(f"   {context}")
    print(f"   failed share {', '.join(map(str, sorted(shares)))}")
    if len(shares) > 1:
        ok = False
        print("   FAIL: the failed share differs between runs")
    return values, ok, shares


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    accepted = True
    for name in names:
        medians, fractions = [], []
        for s in range(args.sets):
            first_seed = args.first_seed + s * args.runs
            values, ok, frac = run_set(bench, name, args, seconds, metrics, first_seed)
            accepted &= ok
            fractions.append(frac)
            print(f"   {'metric':<26} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} "
                  f"{'spread':>8} {'bound':>6}")
            med_of = {}
            for m in metrics:
                v, bound = values[m["name"]], m.get("bound")
                med = med_of[m["name"]] = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4) if len(v) >= 2 else (v[0],) * 3
                spread = (q3 - q1) / abs(med) if med else 0.0
                flag = ""
                if bound is not None and m["name"] != "setup_s":
                    if spread > bound:
                        flag, accepted = "  FAIL: spread above bound", False
                    elif spread > bound / 3:
                        flag = "  (above bound/3)"
                print(f"   {m['name']:<26} {m['unit']:<6} {med:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {spread:>8.2%} "
                      f"{'' if bound is None else f'{bound:.2f}':>6}{flag}")
            medians.append(med_of)
        if args.sets == 2:
            if fractions[0] != fractions[1]:
                accepted = False
                print("   FAIL: the failed share differs between the sets")
            for m in metrics:
                bound = m.get("bound")
                a, b = medians[0][m["name"]], medians[1][m["name"]]
                if not a:
                    continue
                worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
                flag = ""
                if bound is not None and worse > bound:
                    flag, accepted = "  FAIL: worse by more than bound", False
                print(f"   second/first median {m['name']:<26} {b / a:8.4f}{flag}")
    print(f"\nverdict: {'accepted' if accepted else 'REJECTED'}")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
