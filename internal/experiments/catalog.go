package experiments

import (
	"shootdown/internal/hostprof"
	"shootdown/internal/sim"
)

// Result is a catalog experiment's outcome: a structured value, emitted
// whole as JSON or CSV, that also renders as a human-readable table.
type Result interface{ Render() string }

// Args are the inputs of one invocation of catalog experiments; each
// field comes from one of cmd/shootdownsim's flags. The table2, table3,
// table4 and overhead entries share one Tables234 run per Args, so run
// them all through the same *Args.
type Args struct {
	Seed int64
	// Runs is the runs per data point of the fig2, scale and profile
	// sweeps.
	Runs int
	In   Instrument
	// PlantBug plants the intentional stale-translation bug in the chaos,
	// devices and explore campaigns.
	PlantBug bool
	// Devices is the device-TLB count of the devices campaign.
	Devices int
	// DevFaults, when non-empty, is an extra device-fault scenario for
	// the devices campaign.
	DevFaults string
	// ExploreBudget bounds the schedules the explore campaign forks.
	ExploreBudget int
	// At is the virtual-time instant timetravel snapshots and restores to.
	At sim.Time
	// WallClock is the millisecond clock package main injects into the
	// shrink and explore campaigns (this package may not read real time).
	WallClock func() int64
	// Sampler measures the host for the hostcost experiment; package main
	// constructs it (see HostCostOptions.Sampler).
	Sampler *hostprof.Sampler
	// Commit is stamped into the hostcost artifact's provenance.
	Commit string

	tables *TablesResult
}

// Experiment is one catalog entry: its command-line name, a one-paragraph
// description for usage text, and how it runs.
type Experiment struct {
	Name string
	Doc  string
	Run  func(*Args) (Result, error)
}

// Catalog is every experiment cmd/shootdownsim runs, in the order `all`
// runs them. TestExperimentDigests pins every entry but hostcost at seed 7.
var Catalog = []Experiment{
	{"fig2", "Figure 2: basic costs of TLB shootdown (1..15 processors)",
		func(a *Args) (Result, error) { return result(Fig2(a.Seed, a.Runs, a.In)) }},
	{"table1", "Table 1: effect of lazy evaluation (Mach build, Parthenon)",
		func(a *Args) (Result, error) { return result(Table1(a.Seed, a.In)) }},
	{"table2", "Table 2: kernel pmap shootdowns, initiator side", tables(TablesResult.RenderTable2)},
	{"table3", "Table 3: user pmap shootdowns, initiator side", tables(TablesResult.RenderTable3)},
	{"table4", "Table 4: responder results", tables(TablesResult.RenderTable4)},
	{"overhead", "Section 8: machine-wide overhead per application", tables(TablesResult.RenderOverhead)},
	{"perturb", "Section 6.1: instrumentation perturbation check",
		func(a *Args) (Result, error) { return result(Perturbation(a.Seed, a.In)) }},
	{"scale", "Sections 8/11: scaling to larger machines (measured, not just extrapolated)",
		func(a *Args) (Result, error) { return result(Scale(a.Seed, a.Runs, a.In)) }},
	{"strategies", "Ablation: shootdown vs hardware remote-invalidate vs postponed-IPI vs timer-flush",
		func(a *Args) (Result, error) { return result(StrategyCompare(a.Seed, nil, a.In)) }},
	{"ipimodes", "Ablation: unicast vs multicast vs broadcast interrupts",
		func(a *Args) (Result, error) { return result(IPIModes(a.Seed, nil, a.In)) }},
	{"highprio", "Ablation: high-priority software interrupt",
		func(a *Args) (Result, error) { return result(HighPriorityIPI(a.Seed, a.In)) }},
	{"idleopt", "Ablation: idle-processor optimization",
		func(a *Args) (Result, error) { return result(IdleOpt(a.Seed, a.In)) }},
	{"threshold", "Ablation: invalidate-vs-flush threshold",
		func(a *Args) (Result, error) { return result(FlushThreshold(a.Seed, 16, a.In)) }},
	{"queue", "Ablation: consistency-action queue sizing",
		func(a *Args) (Result, error) { return result(QueueSize(a.Seed, a.In)) }},
	{"taggedtlb", "Extension: ASID-tagged TLBs with lazy release (§10)",
		func(a *Args) (Result, error) { return result(TaggedTLB(a.Seed, a.In)) }},
	{"pools", "Extension: processor pools for NUMA machines (§8)",
		func(a *Args) (Result, error) { return result(Pools(a.Seed, 8, a.In)) }},
	{"pageout", "Extension: pageout under memory pressure (§5)",
		func(a *Args) (Result, error) { return result(Pageout(a.Seed, a.In)) }},
	{"faults", "Robustness: fault-injection campaign (dropped/delayed IPIs, slow/stuck responders) " +
		"with watchdog recovery and the TLB-consistency oracle",
		func(a *Args) (Result, error) { return result(FaultCampaign(a.Seed, a.In)) }},
	{"chaos", "Robustness: processor fail-stop & hot-plug campaign against the churn workload, " +
		"with delta-debugging minimization of any failing fault schedule (replay one with -repro)",
		func(a *Args) (Result, error) {
			return result(ChaosCampaign(a.Seed,
				ChaosOptions{Shrink: true, PlantBug: a.PlantBug, WallClock: a.WallClock}, a.In))
		}},
	{"devices", "Robustness: IOMMU/device-TLB chaos campaign against the DMA-streaming workload — " +
		"stalled completions, deaf doorbells, wedged queues, and CPU fail-stop during a device stall — " +
		"with the quarantine ladder armed and the stale-DMA oracle checking every transfer " +
		"(-devices sets the device count, -devfaults adds a custom scenario)",
		func(a *Args) (Result, error) {
			return result(DeviceChaosCampaign(a.Seed, DeviceChaosOptions{
				Devices:   a.Devices,
				Shrink:    true,
				PlantBug:  a.PlantBug,
				ExtraSpec: a.DevFaults,
				WallClock: a.WallClock,
			}, a.In))
		}},
	{"explore", "Robustness: DPOR-lite schedule explorer — fork the run at every racy shootdown tie " +
		"decision within -explorebudget, replay each fork down the other branch, and shrink any " +
		"violation found via restore-to-prefix delta debugging",
		func(a *Args) (Result, error) {
			return result(ExploreCampaign(a.Seed,
				ExploreOptions{Budget: a.ExploreBudget, PlantBug: a.PlantBug, WallClock: a.WallClock}))
		}},
	{"timetravel", "Robustness: snapshot the hot-plug churn run at -at virtual time, rebuild and " +
		"replay a fresh world to the same event boundary, and verify restore is byte-identical " +
		"(then verify both continuations match too)",
		func(a *Args) (Result, error) { return result(TimeTravel(a.Seed, a.At, 0)) }},
	{"profile", "Observability: the Figure 2 workload under the virtual-time profiler, every " +
		"shootdown's critical path reconstructed and its cost attributed to phases " +
		"(pair with -profile <dir>)",
		func(a *Args) (Result, error) { return result(Profile(a.Seed, a.Runs, a.In)) }},
	{"hostcost", "Observability: host-cost attribution — real wall time and heap bytes of the " +
		"simulator itself, every allocation charged to the function and package that made it, " +
		"phase by phase (fig2, table1, snapshot). -hostcost <file> writes the host-cost/v1 " +
		"artifact; -hostprof <dir> adds cpu/heap pprof profiles",
		func(a *Args) (Result, error) {
			return result(HostCost(a.Seed, HostCostOptions{Sampler: a.Sampler, Commit: a.Commit}, a.In))
		}},
}

// result widens an experiment function's typed result to a Result.
func result[R Result](r R, err error) (Result, error) { return r, err }

// tables is the Run of the four entries that view Tables234's runs: the
// runs happen once per Args, and each entry emits the whole TablesResult
// as its structured value but renders only its own view.
func tables(render func(TablesResult) string) func(*Args) (Result, error) {
	return func(a *Args) (Result, error) {
		if a.tables == nil {
			r, err := Tables234(a.Seed, a.In)
			if err != nil {
				return nil, err
			}
			a.tables = &r
		}
		return tablesView{a.tables, render}, nil
	}
}

// tablesView marshals as the embedded TablesResult.
type tablesView struct {
	*TablesResult
	render func(TablesResult) string
}

func (v tablesView) Render() string { return v.render(*v.TablesResult) }
