#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash bench/run.sh -workload pair-static -seed 1
#
# Run it from the repository root. The binary, the Go build cache and every
# other file the go command writes stay under .bench_build/ there, and the
# build never touches the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/ugpubench" .
exec "$out/ugpubench" "$@"
