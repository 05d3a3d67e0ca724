#!/usr/bin/env bash
# Scale smoke (CI: the scale-smoke job; also runnable locally). Exercises the
# million-user-scale pipeline end to end at a CI-sized 100k users:
#
#   1. `igepa generate --binary` streams a 100k-user instance straight into
#      the igepa-bin,3 memory-mapped format (bounded-memory generator);
#   2. `igepa solve --sharded` runs the two-level sharded solver on it (the
#      default shard width splits 100k users into 13 shards);
#   3. the same instance is solved again with --shards 1 (one catalog, the
#      classic path) and the two arrangement utilities must agree within the
#      legalizer tolerance — sharding is a decomposition of the same LP, not
#      a different objective;
#   4. both sharded runs must certify a small coordination gap, the
#      13-shard solve's level 2 must certify inside its fine-step probe
#      (at most 127 coordination iterations at 100k × 200 — it warm-starts
#      from the level-1 prices), and the second solve must reproduce the
#      first bit-for-bit when repeated (determinism at the process level);
#   5. the solve runs again with --memory-budget-mb (default 8, override via
#      SCALE_BUDGET_MB): catalogs spill to the igepa-cat,1 file, level 2 runs
#      on mmapped views under the residency manager, and the arrangement must
#      be byte-identical to the unbudgeted run — eviction and repage are
#      bit-invisible. When SCALE_VCAP_MB is set the budgeted solve runs under
#      a hard `ulimit -v` address-space cap (with MALLOC_ARENA_MAX=2 so glibc
#      does not reserve per-thread arenas), proving the budget actually bounds
#      the process: the unbudgeted path cannot run under the same cap.
#
# Wall-clock timings land in a small JSON artifact for trend visibility
# (absolute seconds are advisory on shared runners — only the agreement,
# determinism and bit-identity checks gate).
#
# Usage: scripts/scale_smoke.sh <build-dir> [users] [timing-json]
set -euo pipefail

build_dir=${1:?usage: scale_smoke.sh <build-dir> [users] [timing-json]}
users=${2:-100000}
timing_json=${3:-}
igepa="$build_dir/igepa_main"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

now_ms() { date +%s%3N; }

echo "== generate: $users users straight to igepa-bin,3"
t0=$(now_ms)
"$igepa" generate --kind synthetic --events 200 --users "$users" --seed 1 \
  --binary --out "$work/instance.bin" | tee "$work/gen.log"
t_generate=$(( $(now_ms) - t0 ))
grep -q "igepa-bin,3" "$work/gen.log" || {
  echo "FAIL: generator did not report the binary format" >&2
  exit 1
}

solve() { # <shards-flag...> <arrangement-out> <log>
  local out=$1 log=$2; shift 2
  "$igepa" solve --in "$work/instance.bin" --algorithm lp-packing --sharded \
    --seed 7 "$@" --out "$out" | tee "$log"
}

echo "== sharded solve (default shard width)"
t0=$(now_ms)
solve "$work/sharded.csv" "$work/sharded.log"
t_sharded=$(( $(now_ms) - t0 ))

echo "== single-shard solve (one catalog, same seed)"
t0=$(now_ms)
solve "$work/single.csv" "$work/single.log" --shards 1
t_single=$(( $(now_ms) - t0 ))

utility() { sed -n 's/^lp-packing.*utility \([0-9.]*\).*/\1/p' "$1"; }
gap() { sed -n 's/.*gap \([0-9.e-]*\)).*/\1/p' "$1"; }
iterations() { sed -n 's/.* \([0-9]*\) coordination iterations.*/\1/p' "$1"; }

u_sharded=$(utility "$work/sharded.log")
u_single=$(utility "$work/single.log")
g_sharded=$(gap "$work/sharded.log")
[[ -n "$u_sharded" && -n "$u_single" && -n "$g_sharded" ]] || {
  echo "FAIL: could not parse utilities/gap from the solve output" >&2
  exit 1
}

echo "== agreement: sharded $u_sharded vs single-shard $u_single" \
     "(certified gap $g_sharded)"
# Legalizer tolerance: both runs round/repair the same fractional mass with
# α-sampling, so utilities agree within a modest relative band. 10% is far
# looser than observed (<1%) but stays flake-proof across seeds and runners.
awk -v a="$u_sharded" -v b="$u_single" 'BEGIN {
  d = (a > b ? a - b : b - a) / (b > 1 ? b : 1);
  if (d > 0.10) { printf "FAIL: utilities differ by %.1f%%\n", d * 100;
                  exit 1 }
  printf "   within tolerance (%.2f%% apart)\n", d * 100 }'
awk -v g="$g_sharded" 'BEGIN {
  if (g > 0.05) { printf "FAIL: certified gap %.4f above 0.05\n", g; exit 1 }
}'
# Level 2 warm-starts from the level-1 prices and must certify inside its
# fine-step probe: every averaging window (t = 1, 3, 7, …) that ends at or
# before max(3, sqrt(T0)), T0 = (|U|/|V|)^2/8 — t <= 127 at 100k x 200. The
# count is deterministic at any thread count.
i_sharded=$(iterations "$work/sharded.log")
[[ -n "$i_sharded" ]] || {
  echo "FAIL: could not parse coordination iterations" >&2
  exit 1
}
awk -v i="$i_sharded" -v u="$users" 'BEGIN {
  limit = u / 200 / sqrt(8); if (limit < 3) limit = 3
  probe = 3; while (2 * probe + 1 <= limit) probe = 2 * probe + 1
  printf "== level 2: %d coordination iterations (probe ends at t = %d)\n",
         i, probe
  if (i > probe) { print "FAIL: level 2 did not certify inside its probe";
                   exit 1 } }'

echo "== determinism: repeat of the sharded solve must be byte-identical"
solve "$work/sharded2.csv" "$work/sharded2.log" >/dev/null
cmp "$work/sharded.csv" "$work/sharded2.csv" || {
  echo "FAIL: repeated sharded solve produced a different arrangement" >&2
  exit 1
}

budget_mb=${SCALE_BUDGET_MB:-8}
vcap_mb=${SCALE_VCAP_MB:-}
echo "== budgeted solve: catalogs spilled, --memory-budget-mb $budget_mb" \
     "${vcap_mb:+(under ulimit -v ${vcap_mb}MB)}"
t0=$(now_ms)
if [[ -n "$vcap_mb" ]]; then
  ( ulimit -v $(( vcap_mb * 1024 ))
    MALLOC_ARENA_MAX=2 "$igepa" solve --in "$work/instance.bin" \
      --algorithm lp-packing --sharded --seed 7 \
      --memory-budget-mb "$budget_mb" --out "$work/budgeted.csv" ) \
    | tee "$work/budgeted.log"
else
  solve "$work/budgeted.csv" "$work/budgeted.log" \
    --memory-budget-mb "$budget_mb"
fi
t_budgeted=$(( $(now_ms) - t0 ))
grep -q "^residency:" "$work/budgeted.log" || {
  echo "FAIL: budgeted solve did not report residency stats" >&2
  exit 1
}
cmp "$work/sharded.csv" "$work/budgeted.csv" || {
  echo "FAIL: budgeted (spilled) solve diverged from the in-memory" \
       "arrangement — eviction must be bit-invisible" >&2
  exit 1
}
echo "   byte-identical to the in-memory arrangement"

residency_field() { # <n-th number in the residency line>
  grep "^residency:" "$work/budgeted.log" | grep -o '[0-9]\+' | sed -n "$1p"
}
spill_bytes=$(residency_field 1)
page_ins=$(residency_field 3)
evictions=$(residency_field 4)

if [[ -n "$timing_json" ]]; then
  cat > "$timing_json" <<EOF
{
  "users": $users,
  "generate_ms": $t_generate,
  "sharded_solve_ms": $t_sharded,
  "single_shard_solve_ms": $t_single,
  "budgeted_solve_ms": $t_budgeted,
  "sharded_utility": $u_sharded,
  "single_shard_utility": $u_single,
  "certified_gap": $g_sharded,
  "memory_budget_mb": $budget_mb,
  "spill_bytes": ${spill_bytes:-0},
  "page_ins": ${page_ins:-0},
  "evictions": ${evictions:-0}
}
EOF
  echo "== timings written to $timing_json"
fi

echo "scale smoke OK: $users users, sharded ${t_sharded}ms," \
     "single-shard ${t_single}ms, budgeted ${t_budgeted}ms"
