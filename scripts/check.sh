#!/bin/sh
# Full local CI. Tier 1 and tier 2 are the Makefile's `tier1` and `tier2`
# targets, defined there only. Tier 1 (build + test + lint) is the hard
# floor — lint is go vet, a gofmt check that fails on any file `gofmt -l .`
# lists, and the shootdownlint analyzer suite (DESIGN.md §10), which
# machine-checks the simulator's determinism, IPL, and lock-ordering
# invariants, and the test step includes the benchmark module's own tests
# (bench/ is a separate module, so the root's go test ./... skips it).
# Tier 2 runs the race detector over internal/sim and
# internal/trace, the only packages allowed real concurrency (the
# simconcurrency analyzer enforces that everything else stays in virtual
# time), plus the chaos-campaign survival tests and a replay of every
# committed fault-schedule reproducer. The smoke stage exercises the
# observability layer end to end: traces and results round-trip through
# `tlbtrace validate`, the profiler and the fault/chaos campaigns are
# deterministic (same seed, byte-identical output), the chaos campaign
# shrinks a planted failure to byte-identical reproducers on a repeated
# run, time travel restores a mid-run snapshot byte for byte, a seeded chaos failure auto-writes a
# flight-recorder black box (whose embedded restore point round-trips
# through validate), the device-chaos campaign is deterministic and a
# forced device quarantine dumps a black box whose devices section
# validates.
#
# Host cost has one gate per measure:
#   allocs/op - tier 1's allocation-ceiling tests: zero for a TLB probe
#               (internal/tlb), a page-table lookup (internal/ptable) and
#               a simulated load (internal/machine), a per-world ceiling
#               for a tester world, a snapshot and a replay restore
#               (internal/workload), and zero per engine step
#               (internal/sim);
#   B/op      - tier 1's TestHostCostBudget (internal/hostprof): every
#               package under its ceiling in scripts/hostcost-budget.txt
#               in the fig2, table1 and snapshot phases;
#   ns/op     - the benchmark module: `bash bench/run.sh compare` on two
#               result sets, against BENCHMARK.json's bounds.
#
# Tier 1 includes the seed-7 digest pins (TestArtifactDigests for the
# observation artifacts, TestExperimentDigests for every experiment's
# result). `make bless` is the one sanctioned way to re-bless them, and
# only for an intended change, recorded in CHANGES.md.
#
# The whole script takes about a minute on a 2-vCPU x86-64 VM with a
# warm build cache.
#
# `make loc` prints the non-test and test Go line counts (internal/, cmd/
# and examples/, testdata excluded) that each CHANGES.md entry reports as
# its net line count, and bench/'s two counts; it is a report, not a gate,
# so this script does not run it.
set -eu
cd "$(dirname "$0")/.."

echo "== tier 1 and tier 2: make tier1 tier2 (the Makefile defines both)"
${MAKE:-make} tier1 tier2

echo "== smoke: shootdownsim trace/metrics/json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/shootdownsim -runs 1 -trace "$tmp/t.json" -metrics "$tmp/m.txt" fig2 >"$tmp/fig2.txt"
go run ./cmd/shootdownsim -runs 1 -format json fig2 >"$tmp/fig2.json"
go run ./cmd/tlbtrace validate -results "$tmp/fig2.json" "$tmp/t.json"
grep -q '^shootdown_syncs_total' "$tmp/m.txt"
grep -q '^# TYPE shootdown_initiator_microseconds histogram' "$tmp/m.txt"

echo "== smoke: tlbtest trace/json"
go run ./cmd/tlbtest -children 4 -trace "$tmp/tt.json" -format json >"$tmp/tt-result.json"
go run ./cmd/tlbtrace validate "$tmp/tt.json"

echo "== smoke: profiles are deterministic (same seed, byte-identical folded stacks)"
go run ./cmd/shootdownsim -seed 7 -runs 1 -format json -profile "$tmp/p1" profile >"$tmp/profile1.json"
go run ./cmd/shootdownsim -seed 7 -runs 1 -format json -profile "$tmp/p2" profile >"$tmp/profile2.json"
cmp "$tmp/profile1.json" "$tmp/profile2.json"
cmp "$tmp/p1/folded.txt" "$tmp/p2/folded.txt"
cmp "$tmp/p1/critical.txt" "$tmp/p2/critical.txt"
cmp "$tmp/p1/timeline.csv" "$tmp/p2/timeline.csv"
cmp "$tmp/p1/locks.txt" "$tmp/p2/locks.txt"
cmp "$tmp/p1/shootdowns.json" "$tmp/p2/shootdowns.json"
grep -q 'ipl-masked' "$tmp/p1/folded.txt"
grep -q 'critical-path report' "$tmp/p1/critical.txt"
go run ./cmd/tlbtrace dag "$tmp/p1" >/dev/null

echo "== smoke: fault campaign is deterministic (same seed, identical bytes)"
go run ./cmd/shootdownsim -seed 7 -format json faults >"$tmp/faults1.json"
go run ./cmd/shootdownsim -seed 7 -format json faults >"$tmp/faults2.json"
cmp "$tmp/faults1.json" "$tmp/faults2.json"

echo "== smoke: chaos campaign is deterministic (a planted failure shrinks to byte-identical reproducers) and corpus repros replay"
# wall_ms is shrink-campaign wall-clock accounting, the one legitimately
# nondeterministic field in the reproducer metadata; strip it before cmp.
go run ./cmd/shootdownsim -seed 7 -chaosbug -format json chaos | sed '/wall_ms/d' >"$tmp/chaos1.json"
go run ./cmd/shootdownsim -seed 7 -chaosbug -format json chaos | sed '/wall_ms/d' >"$tmp/chaos2.json"
cmp "$tmp/chaos1.json" "$tmp/chaos2.json"
grep -q '"Repro"' "$tmp/chaos1.json"
for repro in internal/experiments/testdata/corpus/*.json; do
	go run ./cmd/shootdownsim -repro "$repro"
done

echo "== device-chaos: campaign is deterministic (same seed, identical bytes)"
go run ./cmd/shootdownsim -seed 7 -format json devices >"$tmp/devices1.json"
go run ./cmd/shootdownsim -seed 7 -format json devices >"$tmp/devices2.json"
cmp "$tmp/devices1.json" "$tmp/devices2.json"

echo "== device-chaos: a forced device quarantine dumps a black box whose devices section round-trips"
# The wedge scenario drives the watchdog ladder all the way down: the
# quarantine trips the recorder even though the campaign survives.
go run ./cmd/shootdownsim -seed 7 -format json -flight "$tmp/devflight" devices >/dev/null 2>"$tmp/devflight.log"
go run ./cmd/tlbtrace validate -blackbox "$tmp/devflight"/blackbox-0-watchdog.json | grep -q 'devices: .* quarantined'
go run ./cmd/tlbtrace query -events -cat device "$tmp/devflight"/blackbox-0-watchdog.json | grep -q 'dev-quarantine'

echo "== smoke: time travel — snapshot mid-run, restore by replay, verify byte identity"
go run ./cmd/shootdownsim -seed 7 timetravel >"$tmp/timetravel.txt"
grep -q 'restore verified' "$tmp/timetravel.txt"

echo "== smoke: a seeded chaos failure auto-writes a flight-recorder black box"
go run ./cmd/shootdownsim -seed 7 -format json -chaosbug -flight "$tmp/flight" chaos >"$tmp/chaosbug.json" 2>"$tmp/chaosbug.log"
ls "$tmp/flight"/blackbox-*.json >/dev/null
for box in "$tmp/flight"/blackbox-*.json; do
	go run ./cmd/tlbtrace validate -blackbox "$box"
done
go run ./cmd/tlbtrace query -cat shootdown "$tmp/flight"/blackbox-0-*.json >/dev/null

echo "check: all green"
