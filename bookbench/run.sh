#!/usr/bin/env bash
# Builds the booking benchmark from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bookbench/run.sh --workload paper-medium --seed 101 --seconds 15 --trace 0
#
# The Go build cache, the binary and the traced run's audit logs all
# live under .bench_build, so the benchmark writes nothing outside the
# checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOTELEMETRY=off CGO_ENABLED=0
(cd bookbench && go build -trimpath -o "$out/bookbench" .)
exec "$out/bookbench" --workdir "$out" "$@"
