#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash xpbench/run.sh --workload fill_rt --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build
# (binary, Go build cache) and .bench_out (traces, result records) at
# the checkout root. The last line of standard output is the result
# object; build messages go to standard error.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/xpbench"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/xpbench" && go build -buildvcs=false -o "$build/xpbench" .) >&2

commit=unknown
if command -v git >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

cd "$root"
exec "$build/xpbench" --commit "$commit" "$@"
