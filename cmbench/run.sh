#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash cmbench/run.sh --workload warm_scalar --seed 1 --seconds 20 --trace 0
#
# Build cache, module cache and binary live under .bench_build/ in the
# current directory, so nothing is written outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	HOME="$out/home" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
	GOWORK=off GOENV=off GOTELEMETRY=off
(cd "$root/cmbench" && go build -o "$out/cmbench" .)
exec "$out/cmbench" "$@"
