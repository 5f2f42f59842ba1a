#!/usr/bin/env bash
# Builds the AutoNCS benchmark from the checkout's sources and runs it:
#
#   bash benchmark/run.sh --workload isc --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build and run output (Go build
# cache, binary, span files) goes under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout. Flags are those of main.go.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/benchmark" && go build -o "$out/autoncs-bench" .) >&2
exec "$out/autoncs-bench" --out "$out" "$@"
