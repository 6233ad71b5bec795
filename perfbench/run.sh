#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. From the
# repository root:
#
#   bash perfbench/run.sh --workload interactive-li --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# the build directory ($CARGO_TARGET_DIR, default .bench_build) in the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/perfbench-runs" "$@"
