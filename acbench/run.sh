#!/usr/bin/env bash
# Builds acbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash acbench/run.sh --workload resonator-field --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the traced pass's
# span files.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C acbench build -o "$build/acbench" .
exec "$build/acbench" "$@"
