package main

import (
	"fmt"
	"math"

	"shootdown/internal/core"
	"shootdown/internal/experiments"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/profile"
	"shootdown/internal/trace"
	"shootdown/internal/workload"
)

// size selects how much work one sample does. Full is the benchmark:
// about a second per sample, so a run fits a dozen fresh samples and the
// fastest of them is a steady estimate on a shared host. Tiny exists so
// the package's tests can run every workload in seconds.
type size struct {
	fig2Runs   int     // Fig. 2 tester runs per k
	appScale   float64 // workload.AppConfig.Scale for Table 1 and Camelot
	churnScale float64 // and for churn-observed
	snapEvery  uint64  // churn-observed snapshot period, in engine steps
}

var (
	fullSize = size{fig2Runs: 3, appScale: 0.25, churnScale: 0.25, snapEvery: 20_000}
	tinySize = size{fig2Runs: 1, appScale: 0.05, churnScale: 0.05, snapEvery: 2_000}
)

// bench is one workload: a closed loop that builds a fixed batch of
// worlds from the seed, runs each to completion, and returns the
// simulated result whose canonical JSON is digested.
type bench struct {
	name string
	// planned is the number of worlds one sample builds.
	planned func(size) int
	run     func(seed int64, sz size, o *observer) (any, error)
	// shape builds one world the way the workload's worlds are built,
	// stopped before its first engine step; setup_s times it.
	shape func(seed int64, sz size) error
}

// benches lists the workloads in the round-robin order set mode uses.
var benches = []bench{
	{name: "fig2", planned: func(sz size) int { return 15 * sz.fig2Runs }, run: runFig2, shape: testerShape},
	{name: "table1", planned: func(size) int { return 4 }, run: runTable1, shape: appShape},
	{name: "camelot", planned: func(size) int { return 2 }, run: runCamelot, shape: appShape},
	{name: "churn-observed", planned: func(size) int { return churnSeeds }, run: runChurnObserved, shape: churnShape},
}

func benchByName(name string) (bench, error) {
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
	}
	return bench{}, fmt.Errorf("unknown workload %q", name)
}

// Paper reference values the accuracy metrics are measured against:
// Fig. 2's trend line (430 + 55n µs) and §7.2's ~60% reduction in the
// Mach build's total shootdown overhead from lazy evaluation.
const (
	paperInterceptUS = 430
	paperSlopeUS     = 55
	paperMachLazyCut = 60
)

// runFig2 is the paper's headline artifact: 45 short 16-CPU worlds whose
// spinning children drive the TLB probe path, and whose per-world set-up
// (the eager xpr ring) dominates allocation.
func runFig2(seed int64, sz size, o *observer) (any, error) {
	r, err := experiments.Fig2(seed, sz.fig2Runs, experiments.Instrument{Observe: o.observe})
	o.accuracy["fig2_slope_err_pct"] = 100 * math.Abs(r.Fit.Slope-paperSlopeUS) / paperSlopeUS
	o.accuracy["fig2_intercept_err_pct"] = 100 * math.Abs(r.Fit.Intercept-paperInterceptUS) / paperInterceptUS
	return r, err
}

// runTable1 is Table 1: four worlds bound by the engine switch, with
// kernel-map churn whose shootdowns the lazy-evaluation check mostly
// skips. It is a copy of experiments.Table1's calls (and of its overhead
// formula), made only to pass Scale, which experiments.Table1 does not
// take; a change to either must be repeated here.
func runTable1(seed int64, sz size, o *observer) (any, error) {
	var out experiments.Table1Result
	for i, lazyOff := range []bool{false, true} {
		cfg := workload.AppConfig{Seed: seed, LazyDisabled: lazyOff, Scale: sz.appScale, Observe: o.observe}
		m, err := workload.RunMachBuild(cfg)
		if err != nil {
			return out, fmt.Errorf("mach build (lazyOff=%v): %w", lazyOff, err)
		}
		out.Mach[i] = m
		p, err := workload.RunParthenon(cfg)
		if err != nil {
			return out, fmt.Errorf("parthenon (lazyOff=%v): %w", lazyOff, err)
		}
		out.Parthenon[i] = p
	}
	overhead := func(r workload.AppResult) float64 {
		return float64(r.KernelEvents())*r.KernelSummary().Mean + float64(r.UserEvents())*r.UserSummary().Mean
	}
	if no := overhead(out.Mach[1]); no > 0 {
		cut := 100 * (1 - overhead(out.Mach[0])/no)
		o.accuracy["table1_mach_lazy_cut_err_pts"] = math.Abs(cut - paperMachLazyCut)
	}
	return out, nil
}

// runCamelot runs the write side of the pmap/vm/core layers: fork
// snapshots write-protect the database segment and COW breaks replace
// mapped frames. Its counts pin those paths; its host time, like
// table1's, is engine switches.
func runCamelot(seed int64, sz size, o *observer) (any, error) {
	var out []workload.AppResult
	for _, s := range worldSeeds(seed, 2) {
		r, err := workload.RunCamelot(workload.AppConfig{Seed: s, Scale: sz.appScale, Observe: o.observe})
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// faultSpec is the fault campaign's "chaos" scenario: dropped, delayed
// and spurious IPIs, bus jitter and slow responders. Processor fail-stop
// and hot-plug are left out: at 16 CPUs a CPU that fails while its idle
// loop is dispatching a thread loses that thread, and the run spins until
// its virtual-time bound (seed 1 of failstop=0.9,failby=8ms,revive=1,
// reviveafter=4ms), so no seed range is free of failures.
const faultSpec = "drop=0.15,delay=0.15,delaymax=1ms,spurious=0.10,jitter=0.20,slow=0.20"

// churnWatchdog arms the shootdown watchdog as the fault campaign does, so
// an initiator re-sends a dropped IPI instead of waiting forever.
var churnWatchdog = core.Options{WatchdogTimeout: 1_000_000, WatchdogMaxRetries: 3, WatchdogBackoffMax: 8_000_000}

// churnConfig is the churn-observed world: 16 CPUs of mapping churn under
// injected interrupt faults with the oracle, span tracer, profiler and
// flight recorder all attached.
func churnConfig(seed int64, sz size) (workload.AppConfig, error) {
	fc, err := fault.ParseSpec(faultSpec)
	if err != nil {
		return workload.AppConfig{}, err
	}
	fc.Seed = seed
	tr, err := trace.New(1 << 16)
	if err != nil {
		return workload.AppConfig{}, err
	}
	fr, err := trace.NewRecorder(1 << 10)
	if err != nil {
		return workload.AppConfig{}, err
	}
	return workload.AppConfig{
		NCPUs: 16, Seed: seed, Scale: sz.churnScale, ShootdownOptions: churnWatchdog,
		Faults: &fc, Oracle: true, Tracer: tr, Profiler: profile.New(), Flight: fr,
	}, nil
}

// churnResult is churn-observed's simulated output: the application
// result plus the digest of every periodic whole-simulation snapshot.
type churnResult struct {
	App       workload.AppResult
	Faults    fault.Stats
	Snapshots []string
}

// churnSeeds is how many churn worlds one sample runs. How much work a
// churn world does depends on its seed (11.9% coefficient of variation
// over seeds 1–40). Four quarter-scale worlds vary as little as two at half
// scale or one at full scale: the work varies per step, not per world.
const churnSeeds = 4

// worldSeeds returns the seeds of the n worlds a sample at seed s runs:
// n·s+1 .. n·s+n. Consecutive seeds share no world, so one unusually long
// world moves one run of a sweep over consecutive seeds, not n of them,
// and the sweep's quartiles hold.
func worldSeeds(s int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(n)*s + int64(i) + 1
	}
	return out
}

// runChurnObserved is the only workload where the observation, fault and
// snapshot layers take a measurable share of host time; each world pauses
// every snapEvery steps for a kernel.Snapshot.
func runChurnObserved(seed int64, sz size, o *observer) (any, error) {
	var out []churnResult
	for _, s := range worldSeeds(seed, churnSeeds) {
		var r churnResult
		err := o.span("world", func() error { return churnWorld(s, sz, o, &r) })
		out = append(out, r)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// churnWorld builds, runs, snapshots and collects the one churn world,
// each step in its own span.
func churnWorld(seed int64, sz size, o *observer, out *churnResult) error {
	var k *kernel.Kernel
	var cfg workload.AppConfig
	err := o.span("build", func() (err error) {
		if cfg, err = churnConfig(seed, sz); err != nil {
			return err
		}
		cfg.Observe = o.observe
		k, err = workload.StartChurn(cfg)
		return err
	})
	if err != nil {
		return err
	}
	var runErr error
	for next := sz.snapEvery; ; next += sz.snapEvery {
		if err := o.span("run", func() error { return k.RunToStep(next) }); err != nil {
			runErr = k.Finish(err)
			break
		}
		if k.Eng.Stopped() || k.Eng.StepCount() < next {
			runErr = k.Finish(nil)
			break
		}
		if err := o.span("snapshot", func() error {
			s, err := k.Snapshot()
			if err == nil {
				out.Snapshots = append(out.Snapshots, s.Digest)
				o.counts["snap.captures"]++
			}
			return err
		}); err != nil {
			return err
		}
	}
	_ = o.span("collect", func() error {
		out.App = workload.CollectChurn(cfg, k)
		out.Faults = k.M.Faults().Stats()
		return nil
	})
	return runErr
}

// testerShape builds one Fig. 2 world: 16 CPUs, no preemption timer.
func testerShape(seed int64, _ size) error {
	_, err := workload.StartChurn(workload.AppConfig{NCPUs: 16, Seed: seed, NoTimer: true})
	return err
}

// appShape builds one application world: 16 CPUs with the 10 ms clock.
func appShape(seed int64, _ size) error {
	_, err := workload.StartChurn(workload.AppConfig{NCPUs: 16, Seed: seed})
	return err
}

// churnShape builds one churn-observed world, observers included.
func churnShape(seed int64, sz size) error {
	cfg, err := churnConfig(seed, sz)
	if err != nil {
		return err
	}
	_, err = workload.StartChurn(cfg)
	return err
}

// observer harvests exact per-layer counts from every finished world
// through the workloads' Observe hook, judges each world, and records
// world spans when the sample is traced.
type observer struct {
	counts   map[string]float64
	accuracy map[string]float64
	worlds   int
	failed   int
	spans    *spanLog // nil unless traced
}

func newObserver(spans *spanLog) *observer {
	// Counts only some worlds have start at zero, so every sample reports
	// the same names.
	counts := map[string]float64{"snap.captures": 0, "trace.events": 0}
	return &observer{counts: counts, accuracy: map[string]float64{}, spans: spans}
}

// observe is the Observe hook. A world fails on an oracle violation or on
// lost xpr records (its tables would be incomplete); errors and TLB
// inconsistencies fail the sample through the workload's error return.
func (o *observer) observe(k *kernel.Kernel) {
	o.worlds++
	o.spans.mark("world")
	c := o.counts
	c["kernel.worlds"]++
	c["sim.steps"] += float64(k.Eng.StepCount())
	c["sim.ties"] += float64(k.Eng.TieCount())
	c["sim.spawns"] += float64(k.Eng.Snapshot().NextID)
	c["machine.bus_txns"] += float64(k.M.Bus.Transactions)
	for i := 0; i < k.M.NumCPUs(); i++ {
		s := k.M.CPU(i).TLB.Stats()
		c["tlb.hits"] += float64(s.Hits)
		c["tlb.misses"] += float64(s.Misses)
		c["tlb.inserts"] += float64(s.Inserts)
		c["tlb.invalidates"] += float64(s.Invalidates)
		c["tlb.flushes"] += float64(s.Flushes)
	}
	if k.Shoot != nil {
		s := k.Shoot.Stats()
		c["core.syncs"] += float64(s.Syncs)
		c["core.remote_syncs"] += float64(s.RemoteShootdowns)
		c["core.ipis_sent"] += float64(s.IPIsSent)
		c["core.ipis_coalesced"] += float64(s.IPIsCoalesced)
		c["core.responses"] += float64(s.Responses)
		c["core.entries_invalidated"] += float64(s.EntriesInvalidated)
		c["core.full_flushes"] += float64(s.FullFlushes)
		c["core.watchdog_retries"] += float64(s.WatchdogRetries)
	}
	p := k.Pmaps.Stats()
	c["pmap.enters"] += float64(p.Enters)
	c["pmap.removes"] += float64(p.Removes)
	c["pmap.protects"] += float64(p.Protects)
	c["pmap.pages_removed"] += float64(p.PagesRemoved)
	c["pmap.pages_reprotected"] += float64(p.PagesReprotected)
	c["pmap.lazy_skips"] += float64(p.LazySkips)
	c["pmap.syncs_invoked"] += float64(p.SyncsInvoked)
	v := k.VM.Stats()
	c["vm.faults"] += float64(v.Faults)
	c["vm.cow_copies"] += float64(v.CowCopies)
	c["xpr.records"] += float64(k.Trace.Len())
	c["xpr.dropped"] += float64(k.Trace.Dropped())
	os := k.Oracle.Stats()
	c["oracle.use_checks"] += float64(os.UseChecks)
	c["oracle.insert_checks"] += float64(os.InsertChecks)
	c["oracle.violations"] += float64(os.Violations)
	f := k.M.Faults().Stats()
	c["fault.failstops"] += float64(f.FailStops)
	c["fault.revives"] += float64(f.Revives)
	if tr := k.Tracer(); tr != nil {
		c["trace.events"] += float64(tr.Len()) + float64(tr.Dropped())
	}
	if os.Violations > 0 || k.Trace.Dropped() > 0 {
		o.failed++
	}
}

// finish derives the ratio metrics once every world has been observed.
func (o *observer) finish() {
	c := o.counts
	c["tlb.hit_ratio"] = ratio(c["tlb.hits"], c["tlb.hits"]+c["tlb.misses"])
	// The lazy-evaluation check's useful outcomes over its chances: the
	// shootdowns it skipped against those it skipped or let through.
	c["pmap.lazy_skip_ratio"] = ratio(c["pmap.lazy_skips"], c["pmap.lazy_skips"]+c["pmap.syncs_invoked"])
	delete(c, "pmap.syncs_invoked")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span runs fn inside a named span when the sample is traced.
func (o *observer) span(name string, fn func() error) error {
	if o.spans == nil {
		return fn()
	}
	o.spans.begin(name)
	defer o.spans.end()
	return fn()
}
