#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it; every argument is passed through, for example:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files, the binary and the trace files all
# stay under .bench_build/ at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the build
# directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
if ! (cd perfbench && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench" --out "$build" "$@"
