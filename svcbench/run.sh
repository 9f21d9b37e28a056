#!/usr/bin/env bash
# Builds the r2td service benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash svcbench/run.sh --workload graph-lp --seed 1 --seconds 20 --trace 0
#
# The Go build cache and configuration, temporary files, the binary and every
# run's files stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/svcbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/svcbench" && go build -o "$out/svcbench" .)
exec "$out/svcbench" -workdir "$out" "$@"
