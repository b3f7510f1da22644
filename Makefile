# Local CI for the shootdown reproduction. `make check` is what a PR must
# pass: tier-1 (build + test + lint), tier-2 (race-detector tests over the
# packages with real concurrency), and an end-to-end smoke run of the
# observability layer plus a determinism check of the fault-injection
# campaign.

GO ?= go

.PHONY: check tier1 tier2 build vet lint test race bench smoke chaos devices explore timetravel hostcost bless

check: ## tier-1 + tier-2 + observability and fault-campaign smoke tests
	./scripts/check.sh

tier1: ## the hard floor: build + tests + static analysis
	$(GO) build ./...
	$(GO) test ./...
	cd bench && $(GO) test .
	$(MAKE) lint

tier2: ## race detector + chaos-campaign survival and corpus replay
	$(GO) test -race ./internal/sim/... ./internal/trace/...
	$(GO) test ./internal/experiments -run 'ChaosCampaignSurvivesWithoutBug|StaleReviveBugShrinks|CorpusReplay|DeviceBugShrinks|DeviceQuarantineBlackBox'

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint: ## go vet + the shootdownlint analyzer suite (DESIGN.md §10)
	$(GO) vet ./...
	$(GO) run ./cmd/shootdownlint ./...

test:
	$(GO) test ./...

# internal/sim and internal/trace are the only packages allowed real
# concurrency (the simconcurrency analyzer enforces that the rest stay in
# virtual time), so the race detector only needs to cover them.
race:
	$(GO) test -race ./internal/sim/... ./internal/trace/...

bench: ## every benchmark workload into .bench_build/set.json; `bash bench/run.sh compare a.json b.json` answers "did this change get faster?"
	bash bench/run.sh set -out .bench_build/set.json

smoke: build
	$(GO) run ./cmd/shootdownsim -runs 1 -trace /tmp/shootdown-trace.json fig2
	$(GO) run ./cmd/tlbtrace validate /tmp/shootdown-trace.json

chaos: ## bounded fail-stop/hot-plug campaign with schedule shrinking
	$(GO) run ./cmd/shootdownsim chaos

devices: ## IOMMU/device-TLB chaos campaign against the DMA-streaming workload
	$(GO) run ./cmd/shootdownsim devices

explore: ## DPOR-lite schedule exploration under a bounded schedule budget
	$(GO) run ./cmd/shootdownsim -explorebudget 24 explore

timetravel: ## snapshot a run mid-flight, restore by replay, verify byte identity
	$(GO) run ./cmd/shootdownsim timetravel

hostcost: ## host-cost attribution: per-function/package allocation tables + validation + byte budget (DESIGN.md §17)
	$(GO) run ./cmd/shootdownsim -seed 7 -hostcost /tmp/shootdown-hostcost.json hostcost >/dev/null
	$(GO) run ./cmd/tlbtrace hostcost -validate -mincoverage 99 -budget scripts/hostcost-budget.txt /tmp/shootdown-hostcost.json

bless: ## re-bless the seed-7 pins (observation-artifact digests and the experiment results under internal/experiments/testdata/results) after an intended change
	$(GO) test ./internal/experiments -run '^(TestArtifactDigests|TestExperimentDigests)$$' -count=1 -update
