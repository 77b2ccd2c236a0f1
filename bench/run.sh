#!/usr/bin/env bash
# Entry point of the repository's benchmark (see BENCHMARK.json).
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run, as the driver calls it
#   bash bench/run.sh -all [-seed N]                                     the full set plus the budget table
#   bash bench/run.sh -selfcheck                                         the end-to-end set twice, compared
#
# Builds pivote-load (this directory's own module) and, through it,
# cmd/pivote from the checkout's source, then runs pivote-load from the
# checkout root. -all and -selfcheck run the module's tests first: it is
# outside the root module, so the root's `go test ./...` never does. Everything the Go toolchain writes — build cache, temp
# files, binaries — stays under <checkout>/.bench_build, so the
# benchmark reads and writes only inside its checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

cd "$root/bench"
case "$* " in *"-all "* | *"-selfcheck "*) go vet ./... && go test ./... ;; esac
go build -o "$build/pivote-load" ./cmd/pivote-load
cd "$root"
exec "$build/pivote-load" -root "$root" "$@"
