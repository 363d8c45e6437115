#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload select --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary and
# every file a run writes stay under the build directory ($CARGO_TARGET_DIR
# when set, else .bench_build), so nothing outside the checkout is touched.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C "$root/e2ebench" -o "$build/e2ebench" .
exec "$build/e2ebench" --workdir "$build/e2ebench-run" "$@"
