package workload

import (
	"fmt"

	"shootdown/internal/kernel"
	"shootdown/internal/mem"
	"shootdown/internal/pmap"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/stats"
	"shootdown/internal/xpr"
)

// testerWarmup is how long the tester's children spin before the
// reprotect: enough for every child to be dispatched and cache its entry.
const testerWarmup sim.Time = 3_000_000 // 3 ms

// testerThink is how long a tester child computes between increments.
const testerThink sim.Time = 5_000

// TesterConfig configures the §5.1 TLB-consistency tester.
type TesterConfig struct {
	Children int // k child threads; causes one shootdown hitting k CPUs
	// App is the machine the tester runs on: its CPU count (default 16),
	// seed, clock, and strategy/hardware overrides for ablations. The
	// basic-cost measurement wants exactly one shootdown and no scheduler
	// noise, so its callers set NoTimer; the timer-flush baseline keeps
	// the clock, which its strategy lives off.
	App AppConfig
}

// TesterResult reports one tester run.
type TesterResult struct {
	// Inconsistent is true if any counter advanced after the page was
	// reprotected read-only — a TLB inconsistency was observed.
	Inconsistent bool
	// Saved and Final are the counter snapshots taken immediately after
	// the reprotect and after all children died.
	Saved, Final []uint32
	// ShootUS is the initiator elapsed time (µs) of the single user-pmap
	// shootdown the run causes; ProcsShot is how many processors it hit.
	ShootUS   float64
	ProcsShot int
	// UserEvents should be exactly 1 for k >= 1 on a multiprocessor.
	UserEvents int
	// ProtectUS is the wall-clock (virtual) latency of the whole
	// vm_protect operation, measurable under any strategy.
	ProtectUS float64
	// TraceDropped counts xpr records lost to buffer wraparound.
	TraceDropped uint64
}

// RunTester executes the consistency tester: k child threads increment
// separate counters in one read-write page; the main thread reprotects the
// page read-only and immediately snapshots the counters; the spinning
// children all take unrecoverable write faults; any counter that moved
// after the snapshot reveals an inconsistent TLB entry.
func RunTester(cfg TesterConfig) (TesterResult, error) {
	app := cfg.App.withDefaults()
	if cfg.Children < 1 || cfg.Children >= app.NCPUs {
		return TesterResult{}, fmt.Errorf("workload: tester needs 1 <= children < ncpus, got %d/%d", cfg.Children, app.NCPUs)
	}
	var res TesterResult
	return run(app,
		func(k *kernel.Kernel, _ AppConfig) error { return rigTester(k, cfg, &res) },
		func(k *kernel.Kernel) TesterResult { return harvestTester(k, res) })
}

// rigTester spawns the tester's main thread, which spawns the children,
// reprotects the page and records the counter snapshots into res.
func rigTester(k *kernel.Kernel, cfg TesterConfig, res *TesterResult) error {
	task, err := k.NewTask("tester")
	if err != nil {
		return err
	}
	task.Spawn("main", func(th *kernel.Thread) {
		page, err := th.VMAllocate(mem.PageSize)
		if err != nil {
			th.Fail(err)
			return
		}
		// stop bounds the run when consistency is broken: with a working
		// mechanism the children die on their write faults, but under the
		// "none" baseline their stale entries keep working forever.
		stop := false
		var children []*kernel.Thread
		for i := 0; i < cfg.Children; i++ {
			i := i
			children = append(children, task.Spawn(fmt.Sprintf("child%d", i), func(c *kernel.Thread) {
				// Until stop, read the counter, write it plus one and
				// think 5 µs. An unrecoverable write fault, the test's
				// end state, ends it early.
				_ = c.CountLoop(page+ptable.VAddr(i*mem.WordSize), testerThink, &stop)
			}))
		}
		th.Compute(testerWarmup)
		t0 := th.Now()
		if err := th.VMProtect(page, page+mem.PageSize, pmap.ProtRead); err != nil {
			th.Fail(err)
			return
		}
		res.ProtectUS = (th.Now() - t0).Microseconds()
		// Immediately save a copy of the counters.
		res.Saved = make([]uint32, cfg.Children)
		for i := range res.Saved {
			v, err := th.Read(page + ptable.VAddr(i*mem.WordSize))
			if err != nil {
				th.Fail(err)
				return
			}
			res.Saved[i] = v
		}
		// Give stale entries time to be used, then stop any survivors.
		th.Compute(2_000_000)
		stop = true
		for _, c := range children {
			th.Join(c)
		}
		res.Final = make([]uint32, cfg.Children)
		for i := range res.Final {
			v, err := th.Read(page + ptable.VAddr(i*mem.WordSize))
			if err != nil {
				th.Fail(err)
				return
			}
			res.Final[i] = v
		}
	})
	return nil
}

// harvestTester completes the thread-recorded snapshots in res with the
// consistency verdict and the shootdown's xpr measurements.
func harvestTester(k *kernel.Kernel, res TesterResult) TesterResult {
	// Under fail-stop injection the parent can be reaped mid-test, leaving
	// Final short; an incomplete pair is inconclusive, not inconsistent.
	if len(res.Final) == len(res.Saved) {
		for i := range res.Saved {
			if res.Final[i] != res.Saved[i] {
				res.Inconsistent = true
			}
		}
	}
	res.TraceDropped = k.Trace.Dropped()
	_, userUS := k.Trace.InitiatorTimes()
	res.UserEvents = len(userUS)
	if len(userUS) > 0 {
		res.ShootUS = userUS[len(userUS)-1]
		evs := k.Trace.Select(xpr.EvInitiator)
		for _, ev := range evs {
			if kern, _, procs, _ := ev.Initiator(); !kern {
				res.ProcsShot = procs
			}
		}
	}
	return res
}

// BasicCostPoint is one x/y point of the Figure 2 experiment.
type BasicCostPoint struct {
	Processors int
	MeanUS     float64
	StdUS      float64
	Samples    []float64
}

// BasicCostConfig parameterizes the Figure 2 sweep.
type BasicCostConfig struct {
	Ks   []int // child-thread counts to sweep
	Runs int   // per k; default 10
	// App is every run's machine: its CPU count (default 16) and its Seed,
	// the base of each run's seed.
	App AppConfig
}

// BasicCostResult is the Figure 2 reproduction: per-k means, the
// least-squares trend line fitted to the points with k ≤ 12 (excluding
// the congested tail, as the paper does), and the predicted time at 100
// processors (§11).
type BasicCostResult struct {
	Points  []BasicCostPoint
	Fit     stats.Fit
	FitMaxK int
	At100US float64
	// Dropped sums xpr records lost to wraparound across all runs; nonzero
	// means some shootdowns went unrecorded.
	Dropped uint64
}

// RunBasicCost measures the basic cost of shootdown: for each k, run the
// tester Runs times (seed App.Seed + k*1000 + run) and record the
// initiator elapsed time of the single k-processor shootdown. Figure 2's
// callers set App.NoTimer, as TesterConfig.App says.
func RunBasicCost(cfg BasicCostConfig) (BasicCostResult, error) {
	if cfg.Runs == 0 {
		cfg.Runs = 10
	}
	var out BasicCostResult
	for _, k := range cfg.Ks {
		pt := BasicCostPoint{Processors: k}
		for run := 0; run < cfg.Runs; run++ {
			app := cfg.App
			app.Seed += int64(k*1000 + run)
			res, err := RunTester(TesterConfig{Children: k, App: app})
			if err != nil {
				return out, fmt.Errorf("workload: k=%d run=%d: %w", k, run, err)
			}
			if res.Inconsistent {
				return out, fmt.Errorf("workload: TLB inconsistency at k=%d run=%d", k, run)
			}
			if res.UserEvents != 1 {
				return out, fmt.Errorf("workload: k=%d run=%d caused %d user shootdowns, want 1", k, run, res.UserEvents)
			}
			pt.Samples = append(pt.Samples, res.ShootUS)
			out.Dropped += res.TraceDropped
		}
		pt.MeanUS = stats.Mean(pt.Samples)
		pt.StdUS = stats.StdDev(pt.Samples)
		out.Points = append(out.Points, pt)
	}
	// Fit the trend line on the uncongested region (the paper excludes
	// 13-15, where bus contention bends the curve).
	var xs, ys []float64
	for _, pt := range out.Points {
		if pt.Processors <= 12 {
			xs = append(xs, float64(pt.Processors))
			ys = append(ys, pt.MeanUS)
			out.FitMaxK = max(out.FitMaxK, pt.Processors)
		}
	}
	fit, err := stats.LeastSquares(xs, ys)
	if err != nil {
		return out, err
	}
	out.Fit = fit
	out.At100US = fit.At(100)
	return out, nil
}
