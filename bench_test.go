// Benchmarks that regenerate every table and figure of the paper's
// evaluation, one benchmark per artifact, reporting the headline numbers
// as custom metrics (µs, events, ratios). Absolute values come from the
// Multimax-calibrated cost model; the shapes are the reproduction target.
//
//	go test -bench=. -benchmem
package shootdown_test

import (
	"fmt"
	"sync"
	"testing"

	"shootdown/internal/experiments"
	"shootdown/internal/kernel"
	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/stats"
	"shootdown/internal/tlb"
	"shootdown/internal/workload"
)

const benchSeed = 42

// BenchmarkFig2BasicCost regenerates Figure 2: the basic cost of TLB
// shootdown versus processors involved, with the 1..12 trend-line fit and
// the paper's 100-processor extrapolation.
func BenchmarkFig2BasicCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(benchSeed, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Fit.Intercept, "fit-intercept-µs")
		b.ReportMetric(r.Fit.Slope, "fit-slope-µs/cpu")
		b.ReportMetric(r.At100US/1000, "at-100cpus-ms")
		b.ReportMetric(r.Points[14].MeanUS-r.Fit.At(15), "congestion-excess-k15-µs")
	}
}

// BenchmarkTable1LazyEvaluation regenerates Table 1: the effect of lazy
// evaluation on shootdown counts for the Mach build and Parthenon.
func BenchmarkTable1LazyEvaluation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Mach[0].KernelEvents()), "mach-kernel-events-lazy")
		b.ReportMetric(float64(r.Mach[1].KernelEvents()), "mach-kernel-events-nolazy")
		b.ReportMetric(float64(r.Parthenon[0].UserEvents()), "parthenon-user-events-lazy")
		b.ReportMetric(float64(r.Parthenon[1].UserEvents()), "parthenon-user-events-nolazy")
	}
}

// tablesOnce caches the shared four-application run that Tables 2-4 and
// the overhead analysis are different views of.
var (
	tablesOnce sync.Once
	tablesRes  experiments.TablesResult
	tablesErr  error
)

func tables(b *testing.B) experiments.TablesResult {
	b.Helper()
	tablesOnce.Do(func() {
		tablesRes, tablesErr = experiments.Tables234(benchSeed)
	})
	if tablesErr != nil {
		b.Fatal(tablesErr)
	}
	return tablesRes
}

// BenchmarkTable2KernelShootdowns regenerates Table 2 (kernel-pmap
// initiator results for the four applications).
func BenchmarkTable2KernelShootdowns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := tables(b)
		for _, a := range r.Apps {
			b.ReportMetric(float64(a.KernelEvents()), a.Name+"-events")
			b.ReportMetric(a.KernelSummary().Mean, a.Name+"-mean-µs")
		}
	}
}

// BenchmarkTable3UserShootdowns regenerates Table 3 (user-pmap initiator
// results; only Camelot has any).
func BenchmarkTable3UserShootdowns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := tables(b)
		for _, a := range r.Apps {
			b.ReportMetric(float64(a.UserEvents()), a.Name+"-events")
		}
		cam := r.Apps[3]
		b.ReportMetric(cam.UserSummary().Mean, "camelot-mean-µs")
		b.ReportMetric(stats.Percentile(cam.UserPages, 100), "camelot-max-pages")
	}
}

// BenchmarkTable4Responders regenerates Table 4 (responder service times,
// sampled on 5 of 16 processors).
func BenchmarkTable4Responders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := tables(b)
		for _, a := range r.Apps {
			b.ReportMetric(a.ResponderSummary().Mean, a.Name+"-resp-mean-µs")
		}
	}
}

// BenchmarkOverhead regenerates the §8 overhead analysis.
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := tables(b)
		b.ReportMetric(r.Apps[0].OverheadPct(16, true), "mach-kernel-overhead-%")
		b.ReportMetric(r.Apps[3].OverheadPct(16, false), "camelot-user-overhead-%")
	}
}

// BenchmarkPerturbation regenerates the §6.1 instrumentation check.
func BenchmarkPerturbation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Perturbation(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PerturbationPct, "perturbation-%")
		b.ReportMetric(r.SeedSpreadPct, "seed-spread-%")
	}
}

// BenchmarkScaling regenerates the §8/§11 scaling analysis, measuring
// machines up to 64 processors against the linear extrapolation.
func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Scale(benchSeed, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.At100MS, "extrapolated-100cpu-ms")
		last := r.Measured[len(r.Measured)-1]
		b.ReportMetric(last.MeasuredUS, "measured-63shot-µs")
		b.ReportMetric(last.MeasuredUS/last.TrendUS, "measured/trend-63shot")
	}
}

// BenchmarkAblationStrategies compares the consistency mechanisms (§3, §9).
func BenchmarkAblationStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.StrategyCompare(benchSeed, []int{6})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.ProtectUS, row.Strategy+"-µs")
		}
	}
}

// BenchmarkAblationIPIModes compares unicast/multicast/broadcast IPIs (§9).
func BenchmarkAblationIPIModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.IPIModes(benchSeed, []int{15})
		if err != nil {
			b.Fatal(err)
		}
		for mode, vals := range r.Rows {
			b.ReportMetric(vals[0], mode+"-k15-µs")
		}
	}
}

// BenchmarkAblationHighPriorityIPI measures §9's high-priority software
// interrupt against stock interrupt masking.
func BenchmarkAblationHighPriorityIPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.HighPriorityIPI(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Stock.P90, "stock-p90-µs")
		b.ReportMetric(r.HighPrio.P90, "highprio-p90-µs")
	}
}

// BenchmarkAblationIdleOpt measures the idle-processor optimization (§4).
func BenchmarkAblationIdleOpt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.IdleOpt(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WithOptUS, "with-opt-µs")
		b.ReportMetric(r.WithoutOptUS, "without-opt-µs")
	}
}

// BenchmarkAblationFlushThreshold sweeps the invalidate-vs-flush point (§4).
func BenchmarkAblationFlushThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.FlushThreshold(benchSeed, 16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].ProtectUS, "threshold1-µs")
		b.ReportMetric(r.Rows[len(r.Rows)-1].ProtectUS, "threshold64-µs")
	}
}

// BenchmarkAblationQueueSize sweeps the action-queue size (§4).
func BenchmarkAblationQueueSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.QueueSize(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Rows[0].Overflows), "q1-overflows")
		b.ReportMetric(float64(r.Rows[len(r.Rows)-1].Overflows), "q32-overflows")
	}
}

// BenchmarkExtensionTaggedTLB measures the §10 ASID-tagged TLB extension
// against the stock flush-on-switch design.
func BenchmarkExtensionTaggedTLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TaggedTLB(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Untagged.RuntimeMS, "untagged-ms")
		b.ReportMetric(r.Tagged.RuntimeMS, "tagged-ms")
	}
}

// BenchmarkExtensionPools measures the §8 processor-pool restructuring on
// machines up to 64 CPUs.
func BenchmarkExtensionPools(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Pools(benchSeed, 8)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.GlobalUS, "64cpu-global-µs")
		b.ReportMetric(last.PooledUS, "64cpu-pooled-µs")
	}
}

// BenchmarkExtensionPageout measures the pageout scenario and the
// shootdown's share of it (§5).
func BenchmarkExtensionPageout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Pageout(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TotalPageoutMS, "pageout-ms")
		b.ReportMetric(100*r.ShootdownShare, "shootdown-share-%")
	}
}

// BenchmarkDeviceSweep sweeps the device-TLB count of the DMA-streaming
// workload: the marginal cost of heterogeneous barrier members that ack by
// completion message instead of IPI. Reports per-count device
// invalidations posted and virtual runtime, so a device-path regression (a
// slower completion queue, a busier watchdog ladder) moves a tracked
// headline number.
func BenchmarkDeviceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, nd := range []int{1, 2, 4} {
			r, err := workload.RunDMA(workload.AppConfig{
				NCPUs: 4, Seed: benchSeed, Scale: 0.5, NumDevices: nd,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(r.Shootdown.DevInvalsPosted), fmt.Sprintf("devinvals-%ddev", nd))
			b.ReportMetric(float64(r.Runtime)/1e6, fmt.Sprintf("runtime-ms-%ddev", nd))
		}
	}
}

// BenchmarkSingleShootdown measures one 4-processor shootdown end to end
// (the finest-grained repeatable unit).
func BenchmarkSingleShootdown(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		r, err := workload.RunTester(workload.TesterConfig{
			NCPUs: 8, Children: 4, Seed: benchSeed + int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		total += r.ShootUS
	}
	b.ReportMetric(total/float64(b.N), "virtual-µs/shootdown")
}

// --- microbenchmarks of the substrate itself (wall-clock performance) ---

// BenchmarkSimEngineSwitch measures one engine step of a lone proc. Its
// Sleep leaves it the next proc to run, so every step but the first
// continues in place, without a coroutine switch: this prices the engine's
// step bookkeeping. BenchmarkSimEngineHandoff prices a switched step.
func BenchmarkSimEngineSwitch(b *testing.B) {
	eng := sim.New()
	eng.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimEngineHandoff measures one engine step that is a real
// coroutine handoff: two procs take turns, one step each, while 16
// sleepers sit in the run heap of a chaos engine, the state a 16-CPU
// workload's engine runs in.
func BenchmarkSimEngineHandoff(b *testing.B) {
	eng := sim.New(sim.WithChaos(1))
	for i := 0; i < 16; i++ {
		eng.Spawn("sleeper", func(p *sim.Proc) { p.Sleep(1 << 50) })
	}
	if err := eng.RunUntil(0); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		eng.Spawn(fmt.Sprintf("alt%d", i), func(p *sim.Proc) {
			p.Sleep(sim.Time(i))
			for j := i; j < b.N; j += 2 {
				p.Sleep(2)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.RunUntil(1 << 49); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTLBProbe measures the TLB model's lookup path.
func BenchmarkTLBProbe(b *testing.B) {
	t := tlb.New(tlb.Config{Size: 64})
	for i := 0; i < 64; i++ {
		t.Insert(ptable.VAddr(i)<<mem.PageShift, tlb.ASIDNone, ptable.Make(mem.Frame(i), true))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Probe(ptable.VAddr(i%64)<<mem.PageShift, tlb.ASIDNone)
	}
}

// BenchmarkPageTableWalk measures the two-level walk in simulated memory.
func BenchmarkPageTableWalk(b *testing.B) {
	m := mem.New(64)
	tab, err := ptable.New(m)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := tab.Enter(ptable.VAddr(i)<<mem.PageShift, ptable.Make(mem.Frame(i), true)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(ptable.VAddr(i%16) << mem.PageShift)
	}
}

// BenchmarkMachineMemoryAccess measures a full simulated load (TLB probe,
// protection check, data fetch) through an Exec.
func BenchmarkMachineMemoryAccess(b *testing.B) {
	eng := sim.New()
	costs := machine.DefaultCosts()
	costs.JitterPct = 0
	m := machine.New(eng, machine.Options{NumCPUs: 1, MemFrames: 64, Costs: costs})
	tab, err := ptable.New(m.Phys)
	if err != nil {
		b.Fatal(err)
	}
	m.SetKernelTable(tab)
	va := machine.KernelBase + 0x1000
	f, _ := m.Phys.AllocFrame()
	if err := tab.Enter(va, ptable.Make(f, true)); err != nil {
		b.Fatal(err)
	}
	eng.Spawn("reader", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, fault := ex.Read(va); fault != nil {
				b.Errorf("fault: %v", fault)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchSnapStep is the event boundary the snapshot benchmarks pause at.
const benchSnapStep = 1000

// pausedWorld builds a churn world and pauses it mid-run at an event
// boundary, ready to snapshot.
func pausedWorld(b *testing.B) *kernel.Kernel {
	b.Helper()
	k, err := workload.StartChurn(workload.AppConfig{
		NCPUs: 4, Seed: benchSeed, Scale: 0.5, Oracle: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := k.RunToStep(benchSnapStep); err != nil {
		b.Fatal(err)
	}
	if k.Eng.Stopped() || k.Eng.StepCount() < benchSnapStep {
		b.Fatalf("world ended before step %d", benchSnapStep)
	}
	return k
}

// BenchmarkSnapshotCapture measures one whole-simulation snapshot of a
// paused mid-run world: every layer serialized and the digest computed.
func BenchmarkSnapshotCapture(b *testing.B) {
	k := pausedWorld(b)
	b.ResetTimer()
	var layers int
	for i := 0; i < b.N; i++ {
		s, err := k.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		layers = len(s.Layers)
	}
	b.ReportMetric(float64(layers), "layers")
}

// BenchmarkSnapshotRestore measures replay-based restore end to end:
// rebuild a fresh world from the same configuration, replay it to the
// snapshot step, and verify the digest matches — the unit of work the
// restore-to-prefix shrinker and the explorer amortize.
func BenchmarkSnapshotRestore(b *testing.B) {
	want, err := pausedWorld(b).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := pausedWorld(b).Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if s.Digest != want.Digest {
			b.Fatalf("restore diverged: %s vs %s", s.Digest, want.Digest)
		}
	}
}
