#!/bin/sh
# One profiling command (SNIPPETS.md snippet 1's workflow): runs a
# benchmark with CPU and allocation profiles and prints pprof -top for
# both. blinkbench has no profile flag, so root bench_test.go carries one
# target per gated workload, each the workload's shape as a go test
# benchmark:
#
#   scripts/profile.sh                                     # BenchmarkMemBalanced: mem-balanced (the default)
#   scripts/profile.sh BenchmarkNetReadMostly              # net-readmostly
#   scripts/profile.sh BenchmarkDurableBatch               # durable-batch
#   scripts/profile.sh 'BenchmarkDiskRead/pool=10%'        # disk-read; also pool=5%, pool=1%
#
# Any other benchmark works the same way:
#
#   scripts/profile.sh BenchmarkSearchParallel ./internal/blink
#   PROFILE_CPU=1,2 PROFILE_TIME=5s PROFILE_TOP=25 scripts/profile.sh
#
# The test binary and the profiles land in profiles/ (git-ignored); look
# closer with `go tool pprof -list <regexp> profiles/<bench>.test profiles/<bench>_cpu.pprof`.
set -eu
cd "$(dirname "$0")/.."

bench="${1:-BenchmarkMemBalanced}"
pkg="${2:-.}"
cpu="${PROFILE_CPU:-$(getconf _NPROCESSORS_ONLN)}"
top="${PROFILE_TOP:-15}"
out="$PWD/profiles"
mkdir -p "$out"
name="$(printf %s "$bench" | tr -c 'A-Za-z0-9_\n' _)" # a sub-benchmark's name is no file name

go test -run '^$' -bench "^${bench}\$" -benchtime "${PROFILE_TIME:-10s}" -cpu "$cpu" -benchmem \
	-o "$out/$name.test" -cpuprofile "$out/${name}_cpu.pprof" -memprofile "$out/${name}_mem.pprof" "$pkg"
echo "--- cpu, top $top (flat)"
go tool pprof -top -nodecount "$top" "$out/$name.test" "$out/${name}_cpu.pprof" 2>/dev/null | tail -n +6
echo "--- allocations, top $top (alloc_space)"
go tool pprof -sample_index=alloc_space -top -nodecount "$top" "$out/$name.test" "$out/${name}_mem.pprof" 2>/dev/null | tail -n +5
