#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root, for example:
#
#   bash benchmark/run.sh --workload serve-churn --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every scratch file stay under
# .bench_build in the checkout; nothing is downloaded.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
