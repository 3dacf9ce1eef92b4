#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's own sources and runs it:
#
#   bash perfbench/run.sh --workload storm_dense --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes (the Go
# build cache, the binary, traced runs' CPU profiles) stays under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root; no simulator sources in $root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS=-mod=mod GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# -profdir only matters for --trace 1 runs.
exec "$out/perfbench" -profdir "$out/profiles" "$@"
