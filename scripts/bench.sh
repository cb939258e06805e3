#!/usr/bin/env bash
# bench.sh — run the routing fast-path benchmark suite plus short
# serving-layer load measurements, and emit a machine-readable
# BENCH_9.json (schema documented in EXPERIMENTS.md).
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Environment:
#   BENCHTIME       go test -benchtime value (default 10x)
#   SERVE_DURATION  length of each spaced/spaceload closed-loop
#                   measurement (default 5s; 0 skips the serving rows)
#
# The JSON is an array of objects, one per measurement, in run order.
# Micro-benchmark rows are {name, ns_per_op, bytes_per_op,
# allocs_per_op}, plus a per_request object ({ns, heap-pops,
# deficit-walks, deficit-walk-steps, lut-lookups}) on the
# BenchmarkCEARHandle* rows; the serving rows are {name, req_per_sec,
# p50_ms, p99_ms} — "SpaceloadClosedLoop" with tracing and hot-spot tracking
# off, "SpaceloadClosedLoopTraced" against spaced -trace-sample 1 with
# an audit log (tracing overhead under full sampling),
# "SpaceloadClosedLoopHotspots" with top-32 hot-spot tracking on
# (attribution overhead), "SpaceloadClosedLoopSpec" with the request
# pool generated from the specs/bench.json scenario spec (multi-class
# mix overhead on the client side; the server path is identical). Only
# benchmarks that report allocations produce complete rows; the script
# passes -benchmem so every row is complete.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_9.json}"
BENCHTIME="${BENCHTIME:-10x}"
SERVE_DURATION="${SERVE_DURATION:-5s}"

# Root-package micro-benchmarks: the production CEAR request path (flat
# scratch-pooled search, its generic reference twin, and the
# budget-pruned variant) plus the single-search kernels.
ROOT_PATTERN='^(BenchmarkCEARHandle|BenchmarkCEARHandleGeneric|BenchmarkCEARHandlePruned|BenchmarkCEARHandleHotspots|BenchmarkViewDijkstra|BenchmarkFlatViewSearch)$'
# Graph-package kernels: allocate-per-call vs scratch-reuse pairs.
GRAPH_PATTERN='^(BenchmarkShortestPath|BenchmarkShortestPathScratch|BenchmarkHopLimited|BenchmarkHopLimitedScratch)$'

RAW="$(mktemp)"
ROWS="$(mktemp)"
WORK="$(mktemp -d)"
SPACED_PID=""
cleanup() {
  if [[ -n "$SPACED_PID" ]]; then kill "$SPACED_PID" 2>/dev/null || true; fi
  rm -rf "$RAW" "$ROWS" "$WORK"
}
trap cleanup EXIT

go test -run '^$' -bench "$ROOT_PATTERN" -benchmem -benchtime "$BENCHTIME" . | tee -a "$RAW"
go test -run '^$' -bench "$GRAPH_PATTERN" -benchmem -benchtime "$BENCHTIME" ./internal/graph/ | tee -a "$RAW"

# Fields are read by unit, not position: benchmarks that call
# b.ReportMetric print extra "value unit" pairs between ns/op and B/op.
# Those extras (the per-request figures of BenchmarkCEARHandle*) land
# in a "per_request" object keyed by unit.
awk '
  /^Benchmark/ && NF >= 8 {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; extra = ""
    for (i = 3; i < NF; i += 2) {
      unit = $(i + 1)
      if (unit == "ns/op") ns = $i
      else if (unit == "B/op") bytes = $i
      else if (unit == "allocs/op") allocs = $i
      else {
        sub(/\/request$/, "", unit)
        extra = extra (extra == "" ? "" : ", ") sprintf("\"%s\": %s", unit, $i)
      }
    }
    if (ns == "" || bytes == "" || allocs == "") next
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
      name, ns, bytes, allocs
    if (extra != "") printf ", \"per_request\": {%s}", extra
    printf "}\n"
  }
' "$RAW" > "$ROWS"

# Serving-layer measurements: a small-scale spaced daemon at max clock
# speed, hammered closed-loop by spaceload; the SUMMARY line carries
# sustained throughput and client-observed admission latency. Runs
# three times — everything off (baseline), tracing at sample rate 1
# with an audit log, and hot-spot tracking on — so each optional
# observability layer's overhead is quantified against the same
# baseline.
serve_row() {
  local row_name="$1" conc="$2"; shift 2
  echo "== serving layer: spaced + spaceload closed loop, $row_name ($SERVE_DURATION) =="
  : >"$WORK/spaced.log"
  "$WORK/spaced" -addr 127.0.0.1:0 -clock-rate 0 "$@" >"$WORK/spaced.log" 2>&1 &
  SPACED_PID=$!
  local addr=""
  for _ in $(seq 1 120); do
    addr="$(sed -n 's|^spaced listening on http://\(.*\)/$|\1|p' "$WORK/spaced.log")"
    [[ -n "$addr" ]] && break
    kill -0 "$SPACED_PID" 2>/dev/null || { cat "$WORK/spaced.log" >&2; echo "bench.sh: spaced exited before listening" >&2; exit 1; }
    sleep 1
  done
  [[ -n "$addr" ]] || { cat "$WORK/spaced.log" >&2; echo "bench.sh: spaced never started listening" >&2; exit 1; }

  local summary
  summary="$("$WORK/spaceload" -addr "http://$addr" -mode closed -concurrency "$conc" -duration "$SERVE_DURATION" \
    ${SPACELOAD_EXTRA[@]+"${SPACELOAD_EXTRA[@]}"} \
    | tee /dev/stderr | sed -n 's/^SUMMARY //p')"
  kill -TERM "$SPACED_PID"
  wait "$SPACED_PID" # non-zero = drain failed, and so does the script
  SPACED_PID=""
  [[ -n "$summary" ]] || { echo "bench.sh: spaceload printed no SUMMARY line" >&2; exit 1; }

  awk -v line="$summary" -v name="$row_name" '
    BEGIN {
      n = split(line, kv, " ")
      for (i = 1; i <= n; i++) { split(kv[i], p, "="); v[p[1]] = p[2] }
      printf "  {\"name\": \"%s\", \"req_per_sec\": %s, \"p50_ms\": %s, \"p99_ms\": %s}\n", \
        name, v["req_per_sec"], v["p50_ms"], v["p99_ms"]
    }' >> "$ROWS"
}

if [[ "$SERVE_DURATION" != "0" ]]; then
  go build -o "$WORK/spaced" ./cmd/spaced
  go build -o "$WORK/spaceload" ./cmd/spaceload
  SPACELOAD_EXTRA=()
  serve_row SpaceloadClosedLoop 4 -hotspots=false
  serve_row SpaceloadClosedLoopTraced 4 -hotspots=false -trace-sample 1.0 -audit-log "$WORK/audit.jsonl"
  serve_row SpaceloadClosedLoopHotspots 4 -hotspots=true -hotspot-k 32
  # Scenario-spec request pool: same baseline daemon, but the client's
  # booking mix comes from the multi-class specs/bench.json scenario.
  SPACELOAD_EXTRA=(-spec specs/bench.json)
  serve_row SpaceloadClosedLoopSpec 4 -hotspots=false
  SPACELOAD_EXTRA=()
fi

{
  echo "["
  sed '$!s/$/,/' "$ROWS"
  echo "]"
} > "$OUT"

echo "wrote $OUT"
