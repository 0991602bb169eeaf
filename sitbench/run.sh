#!/usr/bin/env bash
# Builds the sitbench benchmark from the sources of this checkout and
# runs it with the given arguments, e.g.
#
#   bash sitbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, the toolchain's config and telemetry files, the binary, the
# daemon's scratch files) goes under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$root/sitbench" && go build -o "$build/sitbench" .)
exec "$build/sitbench" "$@"
