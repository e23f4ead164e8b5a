#!/usr/bin/env bash
# Codec micro-benchmark harness: runs bench/micro_codec once on the SIMD
# dispatch default and once forced scalar (SKETCHML_SIMD=off), then merges
# both runs into one JSON report with per-bench speedups.
#
# Usage: scripts/run_micro_codec.sh [--smoke] [BUILD_DIR] [OUT_JSON]
#   --smoke    tiny min-time + reduced filter; used by the ctest gate to
#              prove the harness end to end without timing noise mattering
#   BUILD_DIR  cmake build tree containing bench/micro_codec (default: build)
#   OUT_JSON   report path (default: BENCH_codec.json in the repo root)
#
# The report's keys:
#   dispatch_default  items/s per bench with SKETCHML_SIMD unset (auto)
#   forced_scalar     items/s per bench with SKETCHML_SIMD=off
#   speedup_simd_over_scalar  ratio of the two for every shared bench
# Level-pinned benches (BM_*/scalar, BM_*/avx2) ignore the env var and
# compare the kernels inside a single run; the env-split pair above shows
# what the *dispatch default* delivers end to end.
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
  shift
fi
BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_codec.json}"
BIN="$BUILD_DIR/bench/micro_codec"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found or not executable (build the repo first)" >&2
  exit 2
fi
command -v python3 >/dev/null || { echo "error: python3 required" >&2; exit 2; }

MIN_TIME=0.2
FILTER='BM_Encode/|BM_Decode/sketchml|BM_DeltaBinaryKeys|BM_BucketSearch|BM_HashBuckets|BM_DeltaScan|BM_EncodeSketchMlAt'
if [[ "$SMOKE" -eq 1 ]]; then
  MIN_TIME=0.01
  FILTER='BM_BucketSearch|BM_EncodeSketchMlAt|BM_Encode/sketchml|BM_Decode/sketchml|BM_DeltaBinaryKeysDecode'
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

SKETCHML_SIMD=auto "$BIN" \
    --benchmark_filter="$FILTER" --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$TMP/simd.json" --benchmark_out_format=json >&2
SKETCHML_SIMD=off "$BIN" \
    --benchmark_filter="$FILTER" --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$TMP/scalar.json" --benchmark_out_format=json >&2

python3 - "$TMP/simd.json" "$TMP/scalar.json" "$OUT" <<'EOF'
import json
import sys

simd_path, scalar_path, out_path = sys.argv[1:4]


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rates = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        rate = bench.get("items_per_second")
        if rate:
            rates[bench["name"]] = round(rate)
    return doc, rates


simd_doc, simd_rates = load(simd_path)
_, scalar_rates = load(scalar_path)

speedup = {
    name: round(rate / scalar_rates[name], 3)
    for name, rate in simd_rates.items()
    if scalar_rates.get(name)
}

report = {
    "context": simd_doc.get("context", {}),
    "dispatch_default": simd_rates,
    "forced_scalar": scalar_rates,
    "speedup_simd_over_scalar": speedup,
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
EOF
