#!/usr/bin/env bash
# Builds the benchmark inside the checkout (binary, Go build cache and
# trace files all live under .bench_build/) and runs it from the
# checkout root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C "$here" -o "$build/acpbench" .
cd "$root"
exec "$build/acpbench" -out "$build" "$@"
