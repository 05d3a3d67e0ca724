#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly, each run with another seed
and BENCHMARK.json's run_seconds, and prints every metric's median,
quartiles and spread (the distance between the first and third quartile as a
share of the median, the quantity the benchmark's bounds are judged against),
with each end-to-end metric's bound and whether a third of it covers the
spread.

    python3 e2ebench/steady.py --workload serve-durable [--runs 10]
        [--first-seed 1] [--trace 0|1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, units, shares = {}, {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0 or not out.stdout.strip():
            sys.stderr.write(out.stderr)
            sys.exit("run with seed %d failed (exit %d)" % (seed, out.returncode))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(out.stderr)
            sys.exit("run with seed %d: output checks failed" % seed)
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in sorted(result["metrics"].items()))),
            flush=True)

    print("\n%s, %d runs, %d s, trace %s, failed share %s" % (
        args.workload, args.runs, seconds, args.trace, sorted(set(shares))))
    print("%-32s %-9s %14s %14s %14s %8s   bound  steady" % (
        "metric", "unit", "q1", "median", "q3", "spread"))
    for name in sorted(values):
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        line = "%-32s %-9s %14.6g %14.6g %14.6g %7.1f%%" % (
            name, units[name], q1, med, q3, 100 * spread)
        if name in bounds:
            line += "   %5.2f  %s" % (bounds[name], "yes" if spread < bounds[name] / 3 else "NO")
        print(line)


if __name__ == "__main__":
    main()
