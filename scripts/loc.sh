#!/bin/sh
# Non-test Go LOC per package and for the whole repo outside bench/ —
# the number ROADMAP's "falling LOC budget" asks every step to report.
#
#   scripts/loc.sh                    # the five serving-path packages + total
#   scripts/loc.sh internal/wal ...   # other packages + total
set -eu
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- internal/shard internal/repl internal/cluster internal/wire internal/server
for p in "$@"; do
	printf '%-18s %6d\n' "$p" "$(find "./$p" -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"
done
printf '%-18s %6d\n' "total (no bench/)" "$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
