#!/usr/bin/env python3
"""Runs one workload several times and prints each metric's spread.

    python3 perfbench/quartiles.py --workload serve [--runs 10]
        [--seconds 20] [--first-seed 1] [--trace 0] [--sets 1]

Run from the root of the repository. Each run uses its own seed (first-seed,
first-seed + 1, ...). For every metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median: the figures the
bounds in BENCHMARK.json were set from.

With --sets K it makes K sets of --runs runs each, every set on seeds of its
own, and then compares each later set's medians with the first set's: the
change in the metric's worse direction, as a share of the first median. A
regression gate compares two such sets of the same code, so this is the
figure to hold against each end-to-end metric's bound; the spreads are held
against the bounds too (setup_s excepted), and the failed shares of the
sets must be equal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def run_set(args, first_seed):
    """Runs one set; returns ({metric: [values]}, {metric: unit}, shares)."""
    values, units, failed_shares = {}, {}, []
    for i in range(args.runs):
        seed = first_seed + i
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed_shares.append(result["failed"] / result["attempted"])
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            row.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    return values, units, failed_shares


def summary(vals):
    med = statistics.median(vals)
    q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                 else (vals[0], vals[0], vals[0]))
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    spec = {}
    if os.path.exists(SPEC):
        with open(SPEC) as f:
            spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    sets = []
    for s in range(args.sets):
        first = args.first_seed + s * args.runs
        got = run_set(args, first)
        if got is None:
            return 1
        values, units, shares = got
        sets.append(got)
        print(f"\n{args.workload}, set {s + 1}: {args.runs} runs of "
              f"{args.seconds:g} s, seeds {first}-{first + args.runs - 1}, "
              f"failed share {sorted(set(shares))}")
        print(f"{'metric':28} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med, q1, q3, spread = summary(vals)
            bound = spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  over the bound"
            print(f"{name:28} {units[name]:6} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        print(flush=True)

    if len(sets) > 1:
        base_values, _, base_shares = sets[0]
        print(f"{args.workload}: each set's medians against set 1's "
              f"(change in the worse direction, share of set 1's median)")
        for s, (values, _, shares) in enumerate(sets[1:], start=2):
            same = sorted(set(shares)) == sorted(set(base_shares))
            print(f"set {s}: failed share "
                  f"{'equal to' if same else 'DIFFERENT from'} set 1's")
            for name, vals in values.items():
                m1 = statistics.median(base_values[name])
                m2 = statistics.median(vals)
                worse = spec.get(name, {}).get("better", "lower") == "lower"
                change = (m2 - m1) / m1 if m1 else float("nan")
                worse_by = change if worse else -change
                bound = spec.get(name, {}).get("bound")
                flag = ""
                if bound is not None and worse_by > bound:
                    flag = "  over the bound"
                print(f"  {name:28} {m1:12.6g} -> {m2:12.6g} "
                      f"worse by {worse_by:+7.3f}"
                      f" (bound {bound if bound is not None else '-'}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
