# Local CI for the shootdown reproduction. `make check` is what a PR must
# pass: tier-1 (build + test + lint), tier-2 (race-detector tests over the
# packages with real concurrency), and an end-to-end smoke run of the
# observability layer plus a determinism check of the fault-injection
# campaign. The tier-1 and tier-2 steps are defined here only;
# scripts/check.sh runs them as `make tier1 tier2`.

GO ?= go

.PHONY: check tier1 tier2 build vet lint test race bench smoke chaos devices timetravel hostcost bless loc

check: ## tier-1 + tier-2 + observability and fault-campaign smoke tests
	./scripts/check.sh

tier1: build test lint ## the hard floor: build + tests (the bench module's too) + static analysis
	cd bench && $(GO) test .

tier2: race ## race detector + chaos-campaign survival and corpus replay
	$(GO) test ./internal/experiments -run 'ChaosCampaignSurvivesWithoutBug|StaleReviveBugShrinks|CorpusReplay|DeviceBugShrinks|DeviceQuarantineBlackBox'

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint: vet ## go vet + gofmt + the shootdownlint analyzer suite (DESIGN.md §10)
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: not formatted:"; echo "$$unformatted"; exit 1; fi
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

timetravel: ## snapshot a run mid-flight, restore by replay, verify byte identity
	$(GO) run ./cmd/shootdownsim timetravel

hostcost: ## the host byte budget alone, logging each phase's package and top-function tables (DESIGN.md §17)
	$(GO) test -count=1 -v -run '^TestHostCostBudget$$' ./internal/hostprof

bless: ## re-bless the seed-7 pins (observation-artifact digests, and each experiment's result JSON and rendered text under internal/experiments/testdata/results) after an intended change
	$(GO) test ./internal/experiments -run '^(TestArtifactDigests|TestExperimentDigests)$$' -count=1 -update

# golines counts the Go lines under the directories $(1), testdata
# excluded, that also match the find predicate $(2).
golines = find $(1) -name '*.go' ! -path '*/testdata/*' $(2) | xargs cat | wc -l

loc: ## the net line count each CHANGES.md entry reports: non-test and test Go lines of the root module (internal/, cmd/, examples/) and of bench/
	@echo "non-test Go lines: $$($(call golines,internal cmd examples,! -name '*_test.go'))"
	@echo "test Go lines: $$($(call golines,internal cmd examples,-name '*_test.go'))"
	@echo "bench/ non-test Go lines: $$($(call golines,bench,! -name '*_test.go'))"
	@echo "bench/ test Go lines: $$($(call golines,bench,-name '*_test.go'))"
