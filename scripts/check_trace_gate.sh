#!/usr/bin/env bash
# Trace-structure gate: replays a pinned fault-injected training run with
# causal tracing on, rebuilds the per-batch span trees with
# `sketchml_report --trace`, and diffs the *structural* section of its
# critical-path report against the checked-in golden JSON.
#
# Structure (span counts per category, batches, pushes, transfer/retry
# attempts, byte totals, orphan/multi-root counts) is deterministic for a
# fixed seed at any --threads; wall-clock attribution is machine-dependent
# and the differ ignores it. The gate therefore fails only when causal
# wiring changes: a span gains/loses a parent, a retry stops being
# recorded, a category is dropped — or when the trace ring overflows
# (sketchml_report exits 2 on dropped events).
#
# Usage:
#   scripts/check_trace_gate.sh [TRAIN_BIN] [REPORT_BIN] [GOLDEN]
# Defaults assume a ./build tree. Regenerate the golden after an intended
# tracing change with:
#   scripts/check_trace_gate.sh --regen [TRAIN_BIN] [REPORT_BIN]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

# Pinned configuration: keep in sync with the golden snapshot. Ten
# workers with seeded drops + stragglers so retry/backoff spans and
# straggler attribution are exercised, not just the happy path.
run_train() {
  local train_bin="$1" out="$2"
  "$train_bin" --dataset=synthetic --model=lr --codec=sketchml \
    --epochs=2 --workers=10 --servers=2 --threads=2 --seed=1 \
    --crc --fault-seed=7 --fault-drop=0.01 --fault-straggle=0.1 \
    --obs=on --trace-out="$out" >/dev/null
}

golden_default="$repo_root/bench/golden/trace_gate.structural.json"

if [[ "${1:-}" == "--regen" ]]; then
  train_bin="${2:-$repo_root/build/tools/sketchml_train}"
  report_bin="${3:-$repo_root/build/tools/sketchml_report}"
  workdir="$(mktemp -d)"
  trap 'rm -rf "$workdir"' EXIT
  run_train "$train_bin" "$workdir/trace.json"
  "$report_bin" --trace="$workdir/trace.json" --json="$golden_default" \
    --quiet
  echo "regenerated $golden_default"
  exit 0
fi

train_bin="${1:-$repo_root/build/tools/sketchml_train}"
report_bin="${2:-$repo_root/build/tools/sketchml_report}"
golden="${3:-$golden_default}"

for bin in "$train_bin" "$report_bin"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built" >&2
    exit 2
  fi
done
if [[ ! -f "$golden" ]]; then
  echo "error: golden snapshot $golden missing" >&2
  exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
trace="$workdir/trace.json"

run_train "$train_bin" "$trace"

# sketchml_report itself enforces: no dropped events (exit 2), no orphan
# spans or multi-root batches (exit 1), structural diff clean (exit 1).
if "$report_bin" --trace="$trace" --diff-golden="$golden" --quiet; then
  echo "trace gate: PASS"
else
  status=$?
  echo "trace gate: FAIL (causal trace structure drifted from" \
    "bench/golden — run scripts/check_trace_gate.sh --regen if the" \
    "change is intended)" >&2
  exit "$status"
fi
