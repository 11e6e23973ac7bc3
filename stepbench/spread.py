#!/usr/bin/env python3
"""Spread report for the live training-step benchmark.

Collect a set of untraced runs, one per seed and per workload of
BENCHMARK.json at its `run_seconds`, into a directory:

    python3 stepbench/spread.py collect --out .bench_out/setA --seeds 1-10

Then report one set, or compare two sets of runs of the same code:

    python3 stepbench/spread.py report .bench_out/setA
    python3 stepbench/spread.py report .bench_out/setA .bench_out/setB

For every workload x end-to-end metric the report prints each set's
median, quartiles (Python's `statistics.quantiles(values, n=4)`) and
spread (interquartile distance over the median), whether the spread is
within the metric's bound from BENCHMARK.json, and, given two sets,
whether their medians agree: they differ, in either direction, by at
most the bound as a share of the first median. It exits non-zero when
any check fails.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def collect(args, spec):
    os.makedirs(args.out, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for workload in [w["name"] for w in spec["workloads"]]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["workload"] = workload
            result["seed"] = seed
            path = os.path.join(args.out, f"{workload}-seed{seed}.json")
            with open(path, "w") as fh:
                json.dump(result, fh)
            tps = result["metrics"]["tokens_per_s"]["value"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"tokens_per_s={tps:.1f}", flush=True)
    return 0


def load_set(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            result = json.load(fh)
        runs.setdefault(result["workload"], []).append(result)
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def report(args, spec):
    sets = [load_set(d) for d in args.sets]
    ok = True
    print(f"{'workload':<13} {'metric':<12} {'set':>3} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for i, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs.get(workload, [])]
                if len(values) < 2:
                    print(f"{workload:<13} {name:<12} {i:>3} {len(values):>3} too few runs")
                    ok = False
                    continue
                q1, q2, q3, spread = summary(values)
                medians.append(q2)
                verdict = "ok"
                if spread > bound:
                    verdict = "SPREAD>BOUND"
                    ok = False
                elif spread > bound / 3:
                    verdict = "spread>bound/3"
                if not all(r["correct"] for r in runs[workload]):
                    verdict += " INCORRECT"
                    ok = False
                print(f"{workload:<13} {name:<12} {i:>3} {len(values):>3} {q2:>12.6g} "
                      f"{q1:>12.6g} {q3:>12.6g} {spread:>7.4f} {bound:>6}  {verdict}")
            if len(medians) == 2:
                first, second = medians
                moved = (second - first) / first
                agree = abs(moved) <= bound
                ok = ok and agree
                print(f"{'':<13} {name:<12} second vs first: {moved:+.4f} "
                      f"({'agree' if agree else 'DISAGREE'} within {bound})")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run every seed x workload untraced")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    r = sub.add_parser("report", help="spread of one set, or agreement of two")
    r.add_argument("sets", nargs="+", help="one or two result directories")
    args = parser.parse_args()
    spec = load_spec()
    if args.cmd == "collect":
        return collect(args, spec)
    if len(args.sets) > 2:
        parser.error("report takes one or two sets")
    return report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
