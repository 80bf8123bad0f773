#!/usr/bin/env bash
# Builds ordod and the benchmark from source into .bench_build/ and runs
# one benchmark pass; arguments are passed through, e.g.
#
#   bash perfbench/run.sh --workload kv-read-mostly --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, GOPATH, the go
# command's config directory (telemetry counters) and temporary files stay
# under .bench_build/ as well, and nothing is fetched.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/ordod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ordod and perfbench/ are required)" >&2
	exit 1
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/ordod" ./cmd/ordod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ordod "$out/ordod" "$@"
