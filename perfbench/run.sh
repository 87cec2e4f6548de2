#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in, then runs
# it with the arguments given. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload detail --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files, the go command's own configuration
# (telemetry) and the binary stay under .bench_build/perfbench, and no
# module is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -dir "$out" "$@"
