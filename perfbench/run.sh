#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload php_bus --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all stay under .bench_build; the build never uses the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
