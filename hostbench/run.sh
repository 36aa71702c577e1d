#!/usr/bin/env bash
# Builds hostbench from source inside the checkout and runs it with the
# given arguments. Everything the build writes (build cache, binary, the
# go command's own configuration directory) stays under .bench_build/.
# Run from the repository root: bash hostbench/run.sh --workload run_compute
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "hostbench/run.sh: run from the root of a cgcm checkout (no go.mod / internal/core here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
# The go command spawns a detached telemetry child once a day per
# configuration directory, which would outlive this script in a fresh
# checkout. Mode "off" in the (private) configuration directory stops it.
mkdir -p "$build/config/go/telemetry" "$build/tmp"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -o "$build/hostbench" ./hostbench
exec "$build/hostbench" "$@"
