#!/usr/bin/env bash
# Entry point BENCHMARK.json names: runs the harness from the checkout root
# with every Go cache inside the checkout, so a run reads and writes nothing
# outside it. Arguments pass through:
#   bash bench/run.sh --workload range-mem --seed 7 --seconds 22 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
if [[ ! -f go.mod || ! -d cmd/mdsserve ]]; then
	echo "bench/run.sh: no program to measure here (go.mod and cmd/mdsserve are missing)" >&2
	exit 1
fi
# XDG_CONFIG_HOME is where the go command keeps its telemetry state. With a
# fresh one it would start a detached child of itself that outlives the run,
# so telemetry is switched off there before the first go command.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
mkdir -p "$build/bin" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
