#!/usr/bin/env bash
# Benchmark runner (`make bench`): executes the paper-artifact benchmarks
# and the Figure 2 sweep, assembles both into the next free BENCH_<n>.json
# at the repo root, and prints the delta table against the previous
# snapshot so successive changes leave a comparable trajectory of headline
# numbers.
#
# Each report carries provenance (go version, GOMAXPROCS, commit) and the
# host-cost/v1 allocation-attribution artifact, so `benchreport trend` can
# tell a code change from a toolchain or machine change and name the
# allocating functions behind a B/op step.
#
# Env knobs: BENCH_SEED (default 42), BENCH_RUNS (runs per Figure 2 point,
# default 3).
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${BENCH_SEED:-42}"
runs="${BENCH_RUNS:-3}"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo "")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== go test -bench (paper artifacts)"
go test -bench=. -benchmem -run='^$' . | tee "$tmp/bench.txt"

echo "== Figure 2 sweep (seed $seed, $runs runs/point)"
go run ./cmd/shootdownsim -seed "$seed" -runs "$runs" -format json fig2 > "$tmp/fig2.json"

echo "== host-cost attribution (seed $seed)"
go run ./cmd/shootdownsim -seed "$seed" -commit "$commit" \
	-hostcost "$tmp/hostcost.json" hostcost
go run ./cmd/tlbtrace hostcost -validate -mincoverage 99 "$tmp/hostcost.json"

n=0
while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
out="BENCH_${n}.json"
go run ./scripts/benchreport report -commit "$commit" -hostcost "$tmp/hostcost.json" \
	"$tmp/bench.txt" "$tmp/fig2.json" > "$out"
echo "wrote $out"

if [ "$n" -gt 0 ]; then
	prev="BENCH_$((n - 1)).json"
	echo
	echo "== delta vs $prev"
	go run ./scripts/benchreport diff "$prev" "$out"
	echo
	echo "== trajectory"
	go run ./scripts/benchreport trend
fi
