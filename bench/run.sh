#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the
# build and the run leave behind inside <checkout>/.bench_build.
# Usage: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$here" -o "$build/graql-bench" . >&2
exec "$build/graql-bench" "$@"
