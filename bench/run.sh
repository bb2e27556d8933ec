#!/usr/bin/env bash
# The benchmark's entry point, as BENCHMARK.json names it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh -seed 1                 (the whole suite)
#   bash bench/run.sh -compare a.json b.json
#
# It builds blinkbench from the checkout's own source and runs it. The
# compiler's cache, its temporary files, the binary and every file the
# benchmark writes stay under bench/: nothing outside the checkout is
# written. Outside a checkout of the repository (no ../go.mod to build
# against) the build fails and the script exits non-zero without a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/blinkbench" ./cmd/blinkbench
exec "$build/blinkbench" -out "$here/out" "$@"
