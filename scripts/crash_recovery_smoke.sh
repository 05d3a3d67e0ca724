#!/usr/bin/env bash
# Crash-recovery smoke (CI: the crash-recovery job; also runnable locally).
# Proves the durable-serve contract end to end at the PROCESS level: a serve
# run SIGKILLed mid-stream (via the IGEPA_CRASH_AFTER_EPOCH hook, which
# raises SIGKILL the instant the chosen epoch's fsyncs complete) is recovered
# by simply re-running the same command, and the final published arrangement
# is byte-for-byte identical to a run that never crashed.
#
#   1. reference: one uninterrupted durable run writes ref.csv;
#   2. for each kill point: run with IGEPA_CRASH_AFTER_EPOCH=K (must die with
#      exit 137), then re-run the SAME command without the hook — the CLI
#      recovers from the snapshot + WAL tail, resumes the arrival stream at
#      the durable cursor, and writes the final arrangement;
#   3. cmp against ref.csv — any drift (one sample, one id, one byte) fails.
#
# The kill points are chosen around the checkpoint cadence (--checkpoint-every
# 2): one mid-WAL-tail, one exactly on a checkpoint boundary (empty WAL), and
# one on the last epoch.
#
# Both interest encodings of the snapshot (docs/FORMATS.md §7) are crashed:
# a generated instance (a hash-seed base) and the same kind of instance
# written by `igepa generate` and served with --in (a raw-table base). A
# third pass serves a generated instance under a stream with weight deltas
# (--p-interest 0.2 --p-edge 0.1, 9 epochs, kill points 1, 2 and 8): its
# interest drifts reorder users' bids, so the catalog must re-enumerate
# those users for a checkpoint's column ids to survive recovery's rebuild.
#
# Usage: scripts/crash_recovery_smoke.sh <build-dir>
set -euo pipefail

build_dir=${1:?usage: crash_recovery_smoke.sh <build-dir>}
igepa="$build_dir/igepa_main"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

common_flags=(--count 60 --seed 11 --max-batch 8 --checkpoint-every 2)

# crash_and_recover <label> <hash|table> <serve flags...>
crash_and_recover() {
  local label=$1 encoding=$2
  shift 2
  local serve_flags=("$@")
  local dir="$work/$label"
  mkdir -p "$dir"

  echo "== [$label] reference: uninterrupted durable run"
  "$igepa" serve "${serve_flags[@]}" --durable-dir "$dir/ref-state" \
    --out-arrangement "$dir/ref.csv" >"$dir/ref.log"
  local total_epochs
  total_epochs=$(grep -c '^[0-9]' "$dir/ref.log" || true)
  echo "   reference run: $total_epochs epochs"
  [[ "$total_epochs" -ge 5 ]] || {
    echo "FAIL: [$label] reference run produced too few epochs to place" \
      "kill points" >&2
    exit 1
  }

  # Mid-WAL-tail (odd), checkpoint boundary (even), and the final epoch.
  local kill_points=(1 2 $((total_epochs - 1)))
  local k state rc
  for k in "${kill_points[@]}"; do
    echo "== [$label] kill point: SIGKILL after epoch $k"
    state="$dir/state-$k"
    rc=0
    IGEPA_CRASH_AFTER_EPOCH=$k "$igepa" serve "${serve_flags[@]}" \
      --durable-dir "$state" --out-arrangement "$dir/never-written.csv" \
      >"$dir/crash-$k.log" 2>&1 || rc=$?
    if [[ "$rc" -ne 137 ]]; then
      echo "FAIL: [$label] expected SIGKILL exit 137 at epoch $k, got $rc" >&2
      cat "$dir/crash-$k.log" >&2
      exit 1
    fi
    [[ -f "$state/snapshot.igs" ]] || {
      echo "FAIL: [$label] no snapshot survived the crash at epoch $k" >&2
      exit 1
    }
    grep -aq "^interest,$encoding," "$state/snapshot.igs" || {
      echo "FAIL: [$label] snapshot does not use the $encoding encoding" >&2
      exit 1
    }

    echo "   recover + resume"
    "$igepa" serve "${serve_flags[@]}" --durable-dir "$state" \
      --out-arrangement "$dir/recovered-$k.csv" >"$dir/recover-$k.log"
    grep -q '^recovered from ' "$dir/recover-$k.log" || {
      echo "FAIL: [$label] recovery run at epoch $k did not actually recover" >&2
      cat "$dir/recover-$k.log" >&2
      exit 1
    }

    echo "   diff recovered arrangement vs reference (byte-for-byte)"
    cmp "$dir/ref.csv" "$dir/recovered-$k.csv" || {
      echo "FAIL: [$label] recovered arrangement differs after kill at" \
        "epoch $k" >&2
      exit 1
    }
  done
  echo "   [$label] ${#kill_points[@]} kill points recovered bit-identically"
}

crash_and_recover generated hash --events 40 --users 250 "${common_flags[@]}"

"$igepa" generate --kind synthetic --events 40 --users 250 --seed 11 \
  --out "$work/instance.csv" >/dev/null
crash_and_recover csv-input table --in "$work/instance.csv" \
  "${common_flags[@]}"

crash_and_recover weight-drift hash --events 40 --users 250 \
  --p-interest 0.2 --p-edge 0.1 "${common_flags[@]}"

echo "crash_recovery_smoke: both interest encodings and the weight-delta" \
  "stream recovered bit-identically"
