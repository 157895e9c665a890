#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload robc-city --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, the driver binary, per-run artefacts and temporary
# run stores) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

# Keep the toolchain's cache, temp files and config inside the checkout, and
# never let it reach for a network toolchain or module proxy.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
