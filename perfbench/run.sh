#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload query-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
