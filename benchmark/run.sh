#!/usr/bin/env bash
# Builds the benchmark driver and growd from this checkout's source, then
# runs the driver with the arguments given. Everything it writes stays in
# the checkout: binaries and the Go build cache under .bench_build/, span
# files under benchmark/out/. Run it from the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/growd" ]]; then
	echo "benchmark/run.sh: run from the root of a checkout that holds the program's source" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
# The go tool is pointed at directories of its own, so a build neither
# depends on nor touches anything outside the checkout (the repository
# has no module dependencies to fetch).
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

# go build is a no-op when nothing changed, so every run goes through it:
# a stale binary can never be measured.
go build -o "$build/growd" ./cmd/growd
go build -C benchmark -o "$build/benchmark" .

BENCH_GROWD="$build/growd" exec "$build/benchmark" "$@"
