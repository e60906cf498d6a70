#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from (the working directory must be the repository root) and runs it with
# the given arguments, for example:
#
#   bash e2ebench/run.sh --workload search --seed 7 --seconds 20 --trace 0
#
# Build output and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
