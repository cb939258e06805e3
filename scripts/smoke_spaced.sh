#!/usr/bin/env bash
# smoke_spaced.sh — end-to-end serving smoke, the CI gate for the
# booking daemon: build spaced and spaceload, start the daemon at small
# scale, fire a short closed-loop burst, assert a non-zero accept count,
# probe the hot-spot telemetry surface (/v1/hotspots,
# /debug/constellation.json, /debug/map.svg), then verify a clean
# SIGTERM drain (daemon exits 0, logs its drained summary and writes a
# run report obsdiff can read).
#
# Usage: scripts/smoke_spaced.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
SPACED_PID=""
cleanup() {
  if [[ -n "$SPACED_PID" ]]; then kill "$SPACED_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/spaced" ./cmd/spaced
go build -o "$WORK/spaceload" ./cmd/spaceload

LOG="$WORK/spaced.log"
REPORT="$WORK/spaced-report.json"
"$WORK/spaced" -addr 127.0.0.1:0 -clock-rate 4 -queue-depth 64 -batch-size 8 -report "$REPORT" >"$LOG" 2>&1 &
SPACED_PID=$!

# Environment construction takes a few seconds; wait for the listen line.
ADDR=""
for _ in $(seq 1 120); do
  ADDR="$(sed -n 's|^spaced listening on http://\(.*\)/$|\1|p' "$LOG")"
  [[ -n "$ADDR" ]] && break
  kill -0 "$SPACED_PID" 2>/dev/null || { cat "$LOG" >&2; echo "smoke_spaced: spaced exited before listening" >&2; exit 1; }
  sleep 1
done
[[ -n "$ADDR" ]] || { cat "$LOG" >&2; echo "smoke_spaced: spaced never started listening" >&2; exit 1; }
echo "smoke_spaced: daemon up on $ADDR"

SUMMARY="$("$WORK/spaceload" -addr "http://$ADDR" -mode closed -concurrency 4 -duration 3s \
  | tee /dev/stderr | sed -n 's/^SUMMARY //p')"
[[ -n "$SUMMARY" ]] || { echo "smoke_spaced: spaceload printed no SUMMARY line" >&2; exit 1; }

ACCEPTED="$(sed -n 's/.*accepted=\([0-9]*\).*/\1/p' <<<"$SUMMARY")"
ERRORS="$(sed -n 's/.*errors=\([0-9]*\).*/\1/p' <<<"$SUMMARY")"
[[ "${ACCEPTED:-0}" -gt 0 ]] || { echo "smoke_spaced: zero accepted bookings ($SUMMARY)" >&2; exit 1; }
[[ "${ERRORS:-1}" -eq 0 ]] || { echo "smoke_spaced: client errors during burst ($SUMMARY)" >&2; exit 1; }

# Hot-spot telemetry surface: the JSON endpoints must report tracking
# enabled and the map must be a well-formed SVG document.
HOTSPOTS="$(curl -fsS "http://$ADDR/v1/hotspots")"
grep -q '"enabled": *true' <<<"$HOTSPOTS" || { echo "smoke_spaced: /v1/hotspots not enabled: $HOTSPOTS" >&2; exit 1; }
grep -q '"links"' <<<"$HOTSPOTS" || { echo "smoke_spaced: /v1/hotspots missing links tracker" >&2; exit 1; }

CONSTELLATION="$(curl -fsS "http://$ADDR/debug/constellation.json")"
grep -q '"satellites"' <<<"$CONSTELLATION" || { echo "smoke_spaced: /debug/constellation.json missing satellites" >&2; exit 1; }

MAPSVG="$(curl -fsS "http://$ADDR/debug/map.svg")"
grep -q '<svg' <<<"$MAPSVG" || { echo "smoke_spaced: /debug/map.svg is not SVG" >&2; exit 1; }
grep -q '</svg>' <<<"$MAPSVG" || { echo "smoke_spaced: /debug/map.svg is truncated" >&2; exit 1; }
echo "smoke_spaced: hot-spot endpoints OK"

# Graceful drain: SIGTERM must produce an exit-0 daemon that logged the
# drained summary.
kill -TERM "$SPACED_PID"
wait "$SPACED_PID"
SPACED_PID=""
grep -q '^drained:' "$LOG" || { cat "$LOG" >&2; echo "smoke_spaced: no drained summary in daemon log" >&2; exit 1; }

# The run report written at drain must survive an obsdiff self-diff.
go run ./cmd/obsdiff "$REPORT" "$REPORT" >/dev/null

echo "smoke_spaced: OK ($ACCEPTED accepts, clean drain, report readable)"
