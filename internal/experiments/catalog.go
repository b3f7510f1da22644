package experiments

import (
	"shootdown/internal/hostprof"
	"shootdown/internal/sim"
)

// Result is a catalog experiment's outcome: a structured value, emitted
// whole as JSON or CSV, whose Doc is its human-readable report.
type Result interface{ Doc() Doc }

// Args are the inputs of one invocation of catalog experiments, and the
// only input of every experiment function but Fig2; each field comes from
// one of cmd/shootdownsim's flags. Entries run through the same *Args
// share work: table2, table3, table4 and overhead view one Tables234 run,
// and scale reuses fig2's sweep.
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
	// shrink and explore campaigns, which stamp their wall time into
	// reproducer metadata (this package may not read real time).
	WallClock func() int64
	// Sampler measures the host for the hostcost experiment. Package main
	// constructs it with hostprof.NewSampler: the simdeterminism analyzer
	// bans the constructor, like every real-clock entry point, inside
	// this package.
	Sampler *hostprof.Sampler
	// Commit is stamped into the hostcost artifact's provenance.
	Commit string

	fig2r  *Fig2Result
	tables *TablesResult
}

// fig2 is the Figure 2 sweep at a's seed, runs and instrument, run once
// per Args.
func (a *Args) fig2() (Fig2Result, error) {
	if a.fig2r == nil {
		r, err := Fig2(a.Seed, a.Runs, a.In)
		if err != nil {
			return r, err
		}
		a.fig2r = &r
	}
	return *a.fig2r, nil
}

// plant names the bug a campaign plants: bug when a.PlantBug, else none.
func (a *Args) plant(bug string) string {
	if a.PlantBug {
		return bug
	}
	return ""
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
	{"fig2", "Figure 2: basic costs of TLB shootdown (1..15 processors)", run((*Args).fig2)},
	{"table1", "Table 1: effect of lazy evaluation (Mach build, Parthenon)", run(Table1)},
	{"table2", "Table 2: kernel pmap shootdowns, initiator side", tables(TablesResult.Table2Doc)},
	{"table3", "Table 3: user pmap shootdowns, initiator side", tables(TablesResult.Table3Doc)},
	{"table4", "Table 4: responder results", tables(TablesResult.Table4Doc)},
	{"overhead", "Section 8: machine-wide overhead per application", tables(TablesResult.OverheadDoc)},
	{"perturb", "Section 6.1: instrumentation perturbation check", run(Perturbation)},
	{"scale", "Sections 8/11: scaling to larger machines (measured, not just extrapolated)", run(Scale)},
	{"strategies", "Ablation: shootdown vs hardware remote-invalidate vs postponed-IPI vs timer-flush",
		run(StrategyCompare)},
	{"ipimodes", "Ablation: unicast vs multicast vs broadcast interrupts", run(IPIModes)},
	{"highprio", "Ablation: high-priority software interrupt", run(HighPriorityIPI)},
	{"idleopt", "Ablation: idle-processor optimization", run(IdleOpt)},
	{"threshold", "Ablation: invalidate-vs-flush threshold", run(FlushThreshold)},
	{"queue", "Ablation: consistency-action queue sizing", run(QueueSize)},
	{"taggedtlb", "Extension: ASID-tagged TLBs with lazy release (§10)", run(TaggedTLB)},
	{"pools", "Extension: processor pools for NUMA machines (§8)", run(Pools)},
	{"pageout", "Extension: pageout under memory pressure (§5)", run(Pageout)},
	{"faults", "Robustness: fault-injection campaign (dropped/delayed IPIs, slow/stuck responders) " +
		"with watchdog recovery and the TLB-consistency oracle", run(FaultCampaign)},
	{"chaos", "Robustness: processor fail-stop & hot-plug campaign against the churn workload, " +
		"with delta-debugging minimization of any failing fault schedule (replay one with -repro)",
		run(ChaosCampaign)},
	{"devices", "Robustness: IOMMU/device-TLB chaos campaign against the DMA-streaming workload — " +
		"stalled completions, deaf doorbells, wedged queues, and CPU fail-stop during a device stall — " +
		"with the quarantine ladder armed and the stale-DMA oracle checking every transfer " +
		"(-devices sets the device count, -devfaults adds a custom scenario)",
		run(DeviceChaosCampaign)},
	{"explore", "Robustness: DPOR-lite schedule explorer — fork the run at every racy shootdown tie " +
		"decision within -explorebudget, replay each fork down the other branch, and shrink any " +
		"violation found via bounded-replay delta debugging",
		run(ExploreCampaign)},
	{"timetravel", "Robustness: snapshot the hot-plug churn run at -at virtual time, rebuild and " +
		"replay a fresh world to the same event boundary, and verify restore is byte-identical " +
		"(then verify both continuations match too)",
		run(TimeTravel)},
	{"profile", "Observability: the Figure 2 workload under the virtual-time profiler, every " +
		"shootdown's critical path reconstructed and its cost attributed to phases " +
		"(pair with -profile <dir>)",
		run(Profile)},
	{"hostcost", "Observability: host-cost attribution — real wall time and heap bytes of the " +
		"simulator itself, every allocation charged to the function and package that made it, " +
		"phase by phase (fig2, table1, snapshot). -hostcost <file> writes the host-cost/v1 " +
		"artifact; -hostprof <dir> adds cpu/heap pprof profiles",
		run(HostCost)},
}

// run is the Run of an experiment function: it widens the typed result
// to a Result.
func run[R Result](f func(*Args) (R, error)) func(*Args) (Result, error) {
	return func(a *Args) (Result, error) {
		r, err := f(a)
		return r, err
	}
}

// tables is the Run of the four entries that view Tables234's runs: the
// runs happen once per Args, and each entry emits the whole TablesResult
// as its structured value but reports only its own view.
func tables(doc func(TablesResult) Doc) func(*Args) (Result, error) {
	return func(a *Args) (Result, error) {
		if a.tables == nil {
			r, err := Tables234(a)
			if err != nil {
				return nil, err
			}
			a.tables = &r
		}
		return tablesView{a.tables, doc}, nil
	}
}

// tablesView marshals as the embedded TablesResult.
type tablesView struct {
	*TablesResult
	doc func(TablesResult) Doc
}

func (v tablesView) Doc() Doc { return v.doc(*v.TablesResult) }
