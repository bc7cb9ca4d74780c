#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build product
# inside the checkout (.bench_build/). Run from the repository root:
#
#   bash benchmark/run.sh --workload tenants-contended --seed 1 --seconds 20 --trace 0
#
# The build needs the spottune module one directory up; without it the build
# fails and the script exits non-zero before anything is measured.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C benchmark -o "$out/spottune-bench" . >&2
exec "$out/spottune-bench" "$@"
