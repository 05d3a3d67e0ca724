#!/usr/bin/env python3
"""Compare a bench_micro_core run against the committed baseline.

Reads two google-benchmark JSON files and compares per-benchmark real_time
on the benchmarks selected by --filter (default: the catalog enumeration,
LP-solve, rounding and serving families, which are the perf trajectory this
repo tracks — see BENCH_micro_core.json at the repo root). Regressions
beyond --warn print a warning; beyond --fail the script exits nonzero.
Benchmarks present on only one side are classified as added (current only)
or removed (baseline only): both are listed and counted as warnings so a
renamed or dropped benchmark is visible in the gate output, but neither fails
the run — landing a new benchmark (or retiring one) must not need a
simultaneous baseline update.

The current run is additionally checked for multicore scaling regressions:
every `BM_*Threads*/N` family must not get SLOWER as N grows — the widest
row's real_time is compared against the N=1 row of the same family, and a
family whose widest row exceeds its serial row by --scaling-warn prints a
warning (never a failure: thread curves are flat on single-core runners, and
absolute monotonicity is a property of the hardware, not the change under
review).

Usage:
  scripts/bench_compare.py --baseline BENCH_micro_core.json \
                           --current build/BENCH_micro_core.json
"""

import argparse
import json
import re
import sys

DEFAULT_FILTER = (
    r"^(BM_(BuildAdmissibleCatalog|StructuredDualThreads|"
    r"RoundFractionalCatalog|LpPackingEndToEnd|CatalogApplyDelta|"
    r"StructuredDualWarmVsCold|ServeEpoch|ServePipelined|"
    r"KernelRescore|CatalogBuildThreads|ScoreColumnsSoA|ShardedSolve)|"
    r"LT_Serve(EpochLatency|PublishLatency|StageIngest|StageSolve|"
    r"StageCommit))"
)

THREAD_FAMILY = re.compile(r"^(BM_\w*Threads\w*)/(\d+)$")


def scaling_warnings(current, warn_ratio):
    """Families where the widest thread count runs slower than serial.

    Returns a list of warning strings, one per regressing family. The check
    is relative within ONE run, so it transfers across machines; it flags
    the inverted-curve failure mode (threads/8 slower than threads/1) that
    false sharing and per-call pool spawns produce.
    """
    families = {}
    for name, real_time in current.items():
        m = THREAD_FAMILY.match(name)
        if m:
            families.setdefault(m.group(1), {})[int(m.group(2))] = real_time
    out = []
    for family in sorted(families):
        rows = families[family]
        if len(rows) < 2 or 1 not in rows:
            continue
        serial = rows[1]
        widest = max(rows)
        if serial > 0 and rows[widest] > serial * (1.0 + warn_ratio):
            out.append(
                f"{family}: /{widest} is {rows[widest] / serial:.2f}x the /1 "
                f"row — the thread curve regresses instead of scaling")
    return out


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        out[bench["name"]] = float(bench["real_time"])
    return out


def load_rates(path):
    """items_per_second per benchmark, where reported (users/sec for
    BM_ShardedSolve, deltas/sec for BM_ServeEpoch)."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        if "items_per_second" in bench:
            out[bench["name"]] = float(bench["items_per_second"])
    return out


def build_type_warnings(baseline_path, current_path):
    """Warn when either JSON was produced by a non-Release library build.

    Timings from a debug build are meaningless as a baseline (the committed
    BENCH_micro_core.json must come from Release) and meaningless as a
    current run (every comparison against a Release baseline would read as a
    huge regression).
    """
    out = []
    for label, path in (("baseline", baseline_path), ("current", current_path)):
        try:
            with open(path) as f:
                context = json.load(f).get("context", {})
        except (OSError, ValueError):
            continue
        # igepa_build_type is stamped by the bench binaries and describes
        # this tree's compile mode; library_build_type (the fallback, for
        # JSONs predating the stamp) describes google-benchmark's own build.
        build = context.get("igepa_build_type",
                            context.get("library_build_type", ""))
        if build and build != "release":
            out.append(f"{label} {path} was produced by a '{build}' build — "
                       f"timings are not comparable; regenerate from a "
                       f"Release build (cmake -DCMAKE_BUILD_TYPE=Release)")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--current", required=True,
                        help="freshly produced JSON")
    parser.add_argument("--warn", type=float, default=0.10,
                        help="warn above this relative slowdown (default 10%%)")
    parser.add_argument("--fail", type=float, default=0.25,
                        help="fail above this relative slowdown (default 25%%)")
    parser.add_argument("--filter", default=DEFAULT_FILTER,
                        help="regex over benchmark names to compare")
    parser.add_argument("--scaling-warn", type=float, default=0.10,
                        help="warn when a BM_*Threads*/N family's widest row "
                             "is this fraction slower than its /1 row "
                             "(default 10%%)")
    parser.add_argument("--advisory", action="store_true",
                        help="report regressions but always exit 0 (for "
                             "cross-machine comparisons where absolute "
                             "timings are indicative only)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    rates = load_rates(args.current)
    pattern = re.compile(args.filter)

    build_warnings = build_type_warnings(args.baseline, args.current)
    for line in build_warnings:
        print(f"  BUILD  {line}")
    if build_warnings:
        print(f"bench_compare: {len(build_warnings)} debug-build warning(s)",
              file=sys.stderr)

    compared = 0
    warnings = []
    failures = []
    added = []
    removed = []
    for name in sorted(current):
        if not pattern.search(name):
            continue
        if name not in baseline:
            added.append(name)
            continue
        compared += 1
        base = baseline[name]
        cur = current[name]
        delta = (cur - base) / base if base > 0 else 0.0
        tag = "ok"
        if delta > args.fail:
            tag = "FAIL"
            failures.append(name)
        elif delta > args.warn:
            tag = "WARN"
            warnings.append(name)
        elif delta < -args.warn:
            tag = "faster"
        rate = f"  [{rates[name]:,.0f} items/s]" if name in rates else ""
        print(f"  {tag:6s}{name}: {base:12.0f} ns -> {cur:12.0f} ns "
              f"({delta:+.1%}){rate}")
    for name in sorted(baseline):
        if pattern.search(name) and name not in current:
            removed.append(name)
    for name in added:
        print(f"  ADDED   {name}: current only (no baseline entry yet; "
              f"regenerate the committed baseline to start tracking it)")
    for name in removed:
        print(f"  REMOVED {name}: baseline only (gone from the current run; "
              f"regenerate the committed baseline to retire it)")
    if added or removed:
        print(f"bench_compare: benchmark set changed: {len(added)} added"
              f" ({', '.join(added) or '-'}), {len(removed)} removed"
              f" ({', '.join(removed) or '-'})", file=sys.stderr)

    scaling = scaling_warnings(current, args.scaling_warn)
    for line in scaling:
        print(f"  SCALE  {line}")
    if scaling:
        print(f"bench_compare: {len(scaling)} thread-scaling regression "
              f"warning(s) in the current run", file=sys.stderr)

    if compared == 0 and not added and not removed:
        print(f"bench_compare: no benchmarks matched {args.filter!r}",
              file=sys.stderr)
        return 0 if args.advisory else 2
    if failures:
        print(f"bench_compare: {len(failures)} regression(s) beyond "
              f"{args.fail:.0%}: {', '.join(failures)}"
              + (" [advisory: not failing]" if args.advisory else ""),
              file=sys.stderr)
        return 0 if args.advisory else 1
    print(f"bench_compare: {compared} compared, "
          f"{len(warnings) + len(added) + len(removed) + len(scaling) + len(build_warnings)} "
          f"warning(s) ({len(added)} added, {len(removed)} removed, "
          f"{len(scaling)} scaling, {len(build_warnings)} build), 0 failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
