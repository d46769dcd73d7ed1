#!/usr/bin/env bash
# bench.sh — run the E-series experiment benchmarks, the relational
# executor benchmarks and the CAST pushdown benchmarks with -benchmem,
# snapshotting the numbers into BENCH_relational.json and
# BENCH_cast_pushdown.json so the perf trajectory is tracked PR over PR.
#
# BENCH_cast_pushdown.json records the planner acceptance scenario:
# bytes moved (wire_bytes/op) and elapsed time for a selective CAST
# with pushdown on vs off at 10k and 100k rows, plus the end-to-end
# island query with the planner on vs off.
#
# Usage:
#   ./bench.sh                # default -benchtime (stable numbers, slow)
#   BENCHTIME=5x ./bench.sh   # quick smoke numbers
#   ./bench.sh --lint         # time the bigdawg-vet suite repo-wide,
#                             # write BENCH_lint.json, exit 1 on findings
#   ./bench.sh --fault        # benchmark disabled-failpoint overhead,
#                             # write BENCH_fault.json
#   ./bench.sh --obs          # benchmark tracing disabled vs enabled,
#                             # write BENCH_obs.json
#   ./bench.sh --serve        # fixed-duration server load smoke via the
#                             # bigdawg -bench-serve driver, write
#                             # BENCH_serve.json (QPS, p50/p95/p99)
#   ./bench.sh --shard        # shard-scaling sweep: the same table
#                             # partitioned across 1/2/4 in-process BDWQ
#                             # shard servers behind a coordinator, write
#                             # BENCH_shard.json (QPS/p99 vs shard count)
#
# Every mode fails loudly: a benchmark that does not build, errors out,
# or produces zero parseable entries exits non-zero — an empty or
# partial BENCH_*.json must never look like a clean run.
set -euo pipefail
cd "$(dirname "$0")"

# --lint: snapshot the static-analysis suite the way the benchmarks
# snapshot perf — tool build time, repo-wide vet wall time, package
# and finding counts — so analyzer cost is tracked PR over PR too.
if [[ "${1:-}" == "--lint" ]]; then
  OUT_LINT="${OUT_LINT:-BENCH_lint.json}"
  TOOL_DIR="$(mktemp -d)"
  FINDINGS="$(mktemp)"
  trap 'rm -rf "$TOOL_DIR" "$FINDINGS"' EXIT

  build_start=$(date +%s%N)
  go build -o "$TOOL_DIR/bigdawg-vet" ./cmd/bigdawg-vet
  build_ns=$(( $(date +%s%N) - build_start ))

  vet_status=0
  vet_start=$(date +%s%N)
  go vet -vettool="$TOOL_DIR/bigdawg-vet" ./... 2> "$FINDINGS" || vet_status=$?
  vet_ns=$(( $(date +%s%N) - vet_start ))

  # Findings are "<pos>: <msg> (<analyzer>)" lines; go vet also echoes
  # "# <package>" headers to stderr, so count only analyzer lines.
  nfindings=$(grep -cE '\((lockheld|templeak|spanend|decodebounds|batchalias|errdrop)\)$' "$FINDINGS" || true)
  npackages=$(go list ./... | wc -l | tr -d ' ')

  cat > "$OUT_LINT" <<EOF
{
  "tool_build_ns": $build_ns,
  "vet_wall_ns": $vet_ns,
  "packages": $npackages,
  "findings": $nfindings,
  "clean": $([[ "$nfindings" -eq 0 && "$vet_status" -eq 0 ]] && echo true || echo false)
}
EOF
  echo "wrote $OUT_LINT (packages=$npackages findings=$nfindings vet_wall_ns=$vet_ns)" >&2
  if [[ "$nfindings" -gt 0 || "$vet_status" -ne 0 ]]; then
    cat "$FINDINGS" >&2
    exit 1
  fi
  exit 0
fi

BENCHTIME="${BENCHTIME:-1s}"
OUT_RELATIONAL="${OUT_RELATIONAL:-BENCH_relational.json}"
OUT_PUSHDOWN="${OUT_PUSHDOWN:-BENCH_cast_pushdown.json}"

run() {
  local raw="$1" pkg="$2" pattern="$3"
  echo ">> go test -run '^$' -bench '$pattern' -benchmem -benchtime $BENCHTIME $pkg" >&2
  # set -o pipefail makes a build or benchmark failure fatal despite the
  # tee; the explicit check keeps the failure message attributable.
  local before
  before=$(grep -c '^Benchmark' "$raw" || true)
  if ! go test -run '^$' -bench "$pattern" -benchmem -benchtime "$BENCHTIME" "$pkg" | tee -a "$raw"; then
    echo "bench.sh: benchmark run failed: $pkg ($pattern)" >&2
    exit 1
  fi
  # Each pattern must match something on its own: a renamed or deleted
  # benchmark must not hide behind the entries of an earlier run that
  # shares the raw file.
  if [[ "$(grep -c '^Benchmark' "$raw" || true)" -eq "$before" ]]; then
    echo "bench.sh: pattern matched no benchmark: $pkg ($pattern)" >&2
    exit 1
  fi
}

# Parse `BenchmarkName  N  ns/op  B/op  allocs/op  [wire_bytes/op]`
# lines into a JSON array.
to_json() {
  local raw="$1" out="$2"
  awk -v out="$out" '
  BEGIN { print "[" > out; first = 1 }
  /^Benchmark/ && NF >= 3 {
    name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""; wire = ""
    for (i = 3; i < NF; i++) {
      if ($(i+1) == "ns/op")         ns = $i
      if ($(i+1) == "B/op")          bytes = $i
      if ($(i+1) == "allocs/op")     allocs = $i
      if ($(i+1) == "wire_bytes/op") wire = $i
    }
    if (ns == "") next
    if (!first) print "," >> out
    first = 0
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns >> out
    if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes >> out
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs >> out
    if (wire != "")   printf ", \"wire_bytes_per_op\": %s", wire >> out
    printf "}" >> out
  }
  END { print "\n]" >> out }
  ' "$raw"
  local entries
  entries=$(grep -c '"name"' "$out" || true)
  if [[ "$entries" -eq 0 ]]; then
    echo "bench.sh: no benchmark entries parsed into $out — the pattern matched nothing or every run errored" >&2
    exit 1
  fi
  echo "wrote $entries benchmark entries to $out" >&2
}

# --fault: price the fault-injection suite when it is idle — a bare
# disarmed Hit, the Wrap passthrough, and the acceptance-scenario cast
# with no failpoints armed — next to the pre-existing cast baseline.
# BenchmarkFaultCastDisarmed vs BenchmarkCastPushdown/rows=10000/full
# in the same snapshot must sit within run-to-run noise of each other:
# that pair is the "failpoints are free when disabled" proof, tracked
# PR over PR in BENCH_fault.json.
if [[ "${1:-}" == "--fault" ]]; then
  OUT_FAULT="${OUT_FAULT:-BENCH_fault.json}"
  RAW_FAULT="$(mktemp)"
  trap 'rm -f "$RAW_FAULT"' EXIT
  run "$RAW_FAULT" ./internal/core 'BenchmarkFault'
  run "$RAW_FAULT" ./internal/core 'BenchmarkCastPushdown/^rows=10000$/full'
  to_json "$RAW_FAULT" "$OUT_FAULT"
  exit 0
fi

# --obs: price the observability layer — the acceptance cast and the
# end-to-end pushdown query, each with tracing off (plain context, the
# production default) and on (live span tree). The off/on deltas in
# BENCH_obs.json are the "tracing is free when disabled" proof: the
# trace=off rows must sit within run-to-run noise of the untraced
# baselines (BenchmarkFaultCastDisarmed, BenchmarkQueryPushdown), and
# TestObsDisabledZeroAlloc pins the disabled path to zero allocations
# in CI.
if [[ "${1:-}" == "--obs" ]]; then
  OUT_OBS="${OUT_OBS:-BENCH_obs.json}"
  RAW_OBS="$(mktemp)"
  trap 'rm -f "$RAW_OBS"' EXIT
  run "$RAW_OBS" ./internal/core 'BenchmarkObsCast|BenchmarkObsQuery'
  to_json "$RAW_OBS" "$OUT_OBS"
  exit 0
fi

# --serve: the server load smoke. The bigdawg -bench-serve driver
# starts an in-process server over the equivalence generator's
# federation and hammers it with SERVE_CLIENTS concurrent connections
# for SERVE_DURATION, writing QPS and latency quantiles to
# BENCH_serve.json. SERVE_MAX_P99 / SERVE_MAX_ERROR_RATE turn the run
# into a pass/fail gate (CI sets both).
if [[ "${1:-}" == "--serve" ]]; then
  OUT_SERVE="${OUT_SERVE:-BENCH_serve.json}"
  SERVE_CLIENTS="${SERVE_CLIENTS:-64}"
  SERVE_DURATION="${SERVE_DURATION:-3s}"
  SERVE_MAX_P99="${SERVE_MAX_P99:-0}"
  SERVE_MAX_ERROR_RATE="${SERVE_MAX_ERROR_RATE:--1}"
  go run ./cmd/bigdawg -bench-serve \
    -bench-clients "$SERVE_CLIENTS" -bench-duration "$SERVE_DURATION" \
    -bench-out "$OUT_SERVE" \
    -bench-max-p99 "$SERVE_MAX_P99" -bench-max-error-rate "$SERVE_MAX_ERROR_RATE"
  exit 0
fi

# --shard: the shard-scaling sweep. The bigdawg -bench-shard driver
# builds the same seeded table partitioned across SHARD_COUNTS
# in-process shard servers behind a scatter-gather coordinator and
# drives scatter-shaped queries (filtered COUNT, pushed-down GROUP BY)
# through real clients, verifying every answer. BENCH_shard.json holds
# one entry per shard count — the scaling curve. Absolute QPS and its
# slope are machine-dependent (a single-core box cannot scale), so CI
# gates shape and error_rate, not throughput.
if [[ "${1:-}" == "--shard" ]]; then
  OUT_SHARD="${OUT_SHARD:-BENCH_shard.json}"
  SHARD_ROWS="${SHARD_ROWS:-100000}"
  SHARD_COUNTS="${SHARD_COUNTS:-1,2,4}"
  SHARD_CLIENTS="${SHARD_CLIENTS:-8}"
  SHARD_DURATION="${SHARD_DURATION:-2s}"
  go run ./cmd/bigdawg -bench-shard \
    -bench-shard-rows "$SHARD_ROWS" -bench-shard-counts "$SHARD_COUNTS" \
    -bench-shard-clients "$SHARD_CLIENTS" -bench-shard-duration "$SHARD_DURATION" \
    -bench-shard-out "$OUT_SHARD"
  exit 0
fi

RAW_RELATIONAL="$(mktemp)"
RAW_PUSHDOWN="$(mktemp)"
trap 'rm -f "$RAW_RELATIONAL" "$RAW_PUSHDOWN"' EXIT

# E-series experiment benchmarks at the repo root.
run "$RAW_RELATIONAL" . 'BenchmarkE[0-9]'
# Relational executor benchmarks: row vs vectorized, DML index path.
run "$RAW_RELATIONAL" ./internal/relational 'Benchmark'
to_json "$RAW_RELATIONAL" "$OUT_RELATIONAL"

# CAST pushdown: bytes moved + latency, planner on/off, 10k/100k rows.
run "$RAW_PUSHDOWN" ./internal/core 'BenchmarkCastPushdown|BenchmarkQueryPushdown'
to_json "$RAW_PUSHDOWN" "$OUT_PUSHDOWN"
