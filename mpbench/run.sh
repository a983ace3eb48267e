#!/usr/bin/env bash
# Builds the benchmark program (mpbench) from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#	bash mpbench/run.sh --workload analytic-mc --seed 1 --seconds 15 --trace 0
#	bash mpbench/run.sh compare parent-runs/ change-runs/
#
# Every build and run byproduct (Go build cache, Go's own config and
# telemetry files, binary, scratch files, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd mpbench && go build -o "$build/mpbench" .)
exec "$build/mpbench" "$@"
