#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#	bash bench/run.sh --workload fig2 --seed 1 --seconds 20 --trace 0
#	bash bench/run.sh set -out a.json
#	bash bench/run.sh compare a.json b.json
#
# Everything the build and the runs write (Go build cache, binary,
# profiles, span traces) stays under .bench_build/ in the current
# directory; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off PPROF_TMPDIR="$out/pprof"

go -C "$root/bench" build -o "$out/shootdown-bench" .
exec "$out/shootdown-bench" "$@"
