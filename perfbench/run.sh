#!/usr/bin/env bash
# Builds the benchmark and the service binary from this checkout's sources,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload mis-sinr --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# directory lives under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# Build quietly so the last line of stdout stays the benchmark's result.
(cd "$root/perfbench" && go build -o "$out/bench" . && go build -o "$out/radionet-serve" repro/cmd/radionet-serve) >&2

exec "$out/bench" -serve-bin "$out/radionet-serve" -work-dir "$out" "$@"
