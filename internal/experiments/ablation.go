package experiments

import (
	"fmt"

	"shootdown/internal/baseline"
	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/pmap"
	"shootdown/internal/ptable"
	"shootdown/internal/stats"
	"shootdown/internal/tlb"
	"shootdown/internal/workload"
)

// StrategyCompareResult compares the consistency mechanisms of §3 and §9
// on the same operation: reprotect one page cached writable by k CPUs.
type StrategyCompareResult struct {
	Rows []StrategyRow
}

// StrategyRow is one (strategy, k) measurement.
type StrategyRow struct {
	Strategy   string
	Children   int
	ProtectUS  float64
	Consistent bool
}

// Mechanism is an alternative to Mach's shootdown (§3, §9) with the
// hardware it requires.
type Mechanism struct {
	Name string
	// App is the hardware and strategy; only timer-flush, which lives off
	// the clock interrupt, keeps the preemption timer.
	App workload.AppConfig
}

// Mechanisms are the alternatives StrategyCompare measures against Mach's
// shootdown; cmd/tlbtest's -strategy accepts their names.
var Mechanisms = []Mechanism{
	{"hardware-remote", workload.AppConfig{
		NoTimer:          true,
		RemoteInvalidate: true,
		TLB:              tlb.Config{Writeback: tlb.WritebackInterlocked},
		Strategy: func(m *machine.Machine) (core.Strategy, error) {
			return baseline.NewHardwareRemote(m)
		},
	}},
	{"postponed-ipi", workload.AppConfig{
		NoTimer: true,
		TLB:     tlb.Config{Writeback: tlb.WritebackNone},
		Strategy: func(m *machine.Machine) (core.Strategy, error) {
			return baseline.NewPostponedIPI(m)
		},
	}},
	{"timer-flush", workload.AppConfig{
		TLB: tlb.Config{Writeback: tlb.WritebackInterlocked},
		Strategy: func(m *machine.Machine) (core.Strategy, error) {
			return baseline.NewTimerFlush(m)
		},
	}},
}

// strategyKs are the page users StrategyCompare measures each mechanism
// at.
var strategyKs = []int{2, 6, 12}

// StrategyCompare measures the vm_protect latency of each mechanism.
func StrategyCompare(a *Args) (StrategyCompareResult, error) {
	var out StrategyCompareResult
	mach := Mechanism{Name: "mach-shootdown", App: workload.AppConfig{NoTimer: true}}
	for _, c := range append([]Mechanism{mach}, Mechanisms...) {
		for _, k := range strategyKs {
			app := c.App
			app.NCPUs, app.Seed = 16, a.Seed+int64(k)
			res, err := workload.RunTester(workload.TesterConfig{Children: k, App: a.In.App(app)})
			if err != nil {
				return out, fmt.Errorf("%s k=%d: %w", c.Name, k, err)
			}
			out.Rows = append(out.Rows, StrategyRow{
				Strategy: c.Name, Children: k,
				ProtectUS: res.ProtectUS, Consistent: !res.Inconsistent,
			})
		}
	}
	return out, nil
}

// Doc is the comparison.
func (r StrategyCompareResult) Doc() Doc {
	var d Doc
	d.line("Ablation: consistency mechanisms (§3, §9) — vm_protect latency, one page, k users\n")
	d.row("strategy\tk\tprotect latency (µs)\tconsistent")
	for _, row := range r.Rows {
		d.row("%s\t%d\t%.0f\t%v", row.Strategy, row.Children, row.ProtectUS, row.Consistent)
	}
	d.line("\n(hardware remote invalidation removes responder involvement entirely; the")
	d.line(" postponed interrupt removes the stall barrier; timer flushing trades all")
	d.line(" interrupt machinery for multi-millisecond operation latency)")
	return d
}

// IPIModeResult compares unicast / multicast / broadcast interrupt
// hardware (§9's "hardware support for multicast interrupts would help").
type IPIModeResult struct {
	Ks   []int
	Rows map[string][]float64 // mode -> shootdown µs per k
}

// ipiModeKs are the processor counts IPIModes shoots at.
var ipiModeKs = []int{1, 3, 6, 9, 12, 15}

// IPIModes sweeps the shootdown cost across delivery hardware.
func IPIModes(a *Args) (IPIModeResult, error) {
	out := IPIModeResult{Ks: ipiModeKs, Rows: map[string][]float64{}}
	for _, mode := range []machine.IPIMode{machine.IPIUnicast, machine.IPIMulticast, machine.IPIBroadcast} {
		for _, k := range ipiModeKs {
			res, err := workload.RunTester(workload.TesterConfig{
				Children: k,
				App:      a.In.App(workload.AppConfig{NCPUs: 16, Seed: a.Seed + int64(k), IPIMode: mode, NoTimer: true}),
			})
			if err != nil {
				return out, err
			}
			if res.Inconsistent {
				return out, fmt.Errorf("inconsistency under %v", mode)
			}
			out.Rows[mode.String()] = append(out.Rows[mode.String()], res.ShootUS)
		}
	}
	return out, nil
}

// Doc is the sweep and the unicast/multicast crossover.
func (r IPIModeResult) Doc() Doc {
	var d Doc
	d.line("Ablation: IPI delivery hardware (§9) — shootdown cost by processors shot at\n")
	d.row("k\tunicast (µs)\tmulticast (µs)\tbroadcast (µs)")
	cross := -1
	for i, k := range r.Ks {
		u, m, bc := r.Rows["unicast"][i], r.Rows["multicast"][i], r.Rows["broadcast"][i]
		d.row("%d\t%.0f\t%.0f\t%.0f", k, u, m, bc)
		if cross < 0 && m < u {
			cross = k
		}
	}
	if cross >= 0 {
		d.line("\nmulticast beats the unicast send loop from k=%d on", cross)
	}
	d.line("(\"beyond some number of processors it is faster to use a broadcast interrupt")
	d.line(" than it is to iterate down the list interrupting one processor at a time\")")
	return d
}

// HighPriorityIPIResult reproduces §9's first proposal: a software
// interrupt above device priority removes the latency and skew that
// interrupt masking adds to kernel-pmap shootdowns.
type HighPriorityIPIResult struct {
	Stock, HighPrio stats.Summary
	StockMax, HPMax float64
}

// HighPriorityIPI runs a masking-heavy kernel scenario — responders stuck
// in long device-masked critical sections while another processor shoots
// the kernel pmap — on stock hardware and with the high-priority software
// interrupt, comparing kernel-shootdown latency distributions.
func HighPriorityIPI(a *Args) (HighPriorityIPIResult, error) {
	var out HighPriorityIPIResult
	run := func(hp bool) ([]float64, error) {
		k, err := a.In.runWorld(kernel.Config{
			Machine: machine.Options{NumCPUs: 4, MemFrames: 2048, Seed: a.Seed, HighPriorityIPI: hp},
		}, func(k *kernel.Kernel) error {
			ktask := k.KernelTask()
			// Two responders alternating long device-masked critical sections
			// ("many short intervals, but few long ones" — we model the few
			// long ones, which create the skew).
			for i := 0; i < 2; i++ {
				ktask.Spawn(fmt.Sprintf("masker%d", i), func(th *kernel.Thread) {
					for j := 0; j < 60; j++ {
						th.KernelSection(1_500_000) // 1.5 ms masked
						th.Compute(500_000)
					}
				})
			}
			ktask.Spawn("initiator", func(th *kernel.Thread) {
				for i := 0; i < 25; i++ {
					va, err := th.KernelAllocate(mem.PageSize)
					if err != nil {
						th.Fail(err)
						return
					}
					if err := th.Write(va, 1); err != nil {
						th.Fail(err)
						return
					}
					th.Compute(3_000_000)
					if err := th.KernelDeallocate(va, va+mem.PageSize); err != nil {
						th.Fail(err)
						return
					}
				}
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
		ks, _ := k.Trace.InitiatorTimes()
		return ks, nil
	}
	stock, err := run(false)
	if err != nil {
		return out, err
	}
	hp, err := run(true)
	if err != nil {
		return out, err
	}
	out.Stock = stats.Summarize(stock, 5)
	out.HighPrio = stats.Summarize(hp, 5)
	out.StockMax = stats.Percentile(stock, 100)
	out.HPMax = stats.Percentile(hp, 100)
	return out, nil
}

// Doc is the distribution comparison.
func (r HighPriorityIPIResult) Doc() Doc {
	var d Doc
	d.line("Ablation: high-priority software interrupt (§9, Mach build kernel shootdowns)\n")
	d.row("hardware\tmean (µs)\tmedian\t90th %%\tmax")
	d.row("stock (IPI masked with devices)\t%.0f\t%.0f\t%.0f\t%.0f",
		r.Stock.Mean, r.Stock.Median, r.Stock.P90, r.StockMax)
	d.row("high-priority software interrupt\t%.0f\t%.0f\t%.0f\t%.0f",
		r.HighPrio.Mean, r.HighPrio.Median, r.HighPrio.P90, r.HPMax)
	d.line("\n(\"this would reduce the time for kernel shootdowns to more closely match user")
	d.line(" shootdowns, and eliminate the skew caused by long periods of interrupt disablement\")")
	return d
}

// IdleOptResult measures the idle-processor optimization (§4 refinement 5).
type IdleOptResult struct {
	WithOptUS    float64
	WithoutOptUS float64
	IPIsWith     uint64
	IPIsWithout  uint64
}

// IdleOpt measures kernel-pmap shootdown cost on a machine where all other
// processors are idle, with and without the optimization.
func IdleOpt(a *Args) (IdleOptResult, error) {
	var out IdleOptResult
	run := func(disable bool) (float64, uint64, error) {
		k, err := a.In.runWorld(kernel.Config{
			Machine:   machine.Options{NumCPUs: 16, MemFrames: 2048, Seed: a.Seed},
			Shootdown: core.Options{DisableIdleOptimization: disable},
		}, func(k *kernel.Kernel) error {
			k.KernelTask().Spawn("worker", func(th *kernel.Thread) {
				for i := 0; i < 20; i++ {
					va, err := th.KernelAllocate(mem.PageSize)
					if err != nil {
						th.Fail(err)
						return
					}
					if err := th.Write(va, 1); err != nil {
						th.Fail(err)
						return
					}
					th.Compute(2_000_000)
					if err := th.KernelDeallocate(va, va+mem.PageSize); err != nil {
						th.Fail(err)
						return
					}
				}
			})
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		ks, _ := k.Trace.InitiatorTimes()
		return stats.Mean(ks), k.Shoot.Stats().IPIsSent, nil
	}
	var err error
	out.WithOptUS, out.IPIsWith, err = run(false)
	if err != nil {
		return out, err
	}
	out.WithoutOptUS, out.IPIsWithout, err = run(true)
	return out, err
}

// Doc is the comparison.
func (r IdleOptResult) Doc() Doc {
	var d Doc
	d.line("Ablation: idle-processor optimization (§4) — kernel shootdowns, 15 idle CPUs\n")
	d.row("configuration\tinitiator mean (µs)\tIPIs sent")
	d.row("optimization on (queue only for idle)\t%.0f\t%d", r.WithOptUS, r.IPIsWith)
	d.row("optimization off (interrupt everyone)\t%.0f\t%d", r.WithoutOptUS, r.IPIsWithout)
	d.line("\nspeedup from not synchronizing with idle processors: %.1fx", r.WithoutOptUS/r.WithOptUS)
	return d
}

// ThresholdResult sweeps the invalidate-vs-flush threshold (§4 detail 1).
type ThresholdResult struct {
	Pages int
	Rows  []ThresholdRow
}

// ThresholdRow is one threshold setting.
type ThresholdRow struct {
	Threshold   int
	ProtectUS   float64
	FullFlushes uint64
}

// thresholdPages is the size of the range FlushThreshold reprotects.
const thresholdPages = 16

// FlushThreshold reprotects a thresholdPages-page range cached by 4 CPUs
// under various thresholds.
func FlushThreshold(a *Args) (ThresholdResult, error) {
	out := ThresholdResult{Pages: thresholdPages}
	for _, thr := range []int{1, 4, 8, 16, 64} {
		res, err := runRangeProtect(a.Seed, core.Options{FlushThreshold: thr}, a.In)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, ThresholdRow{
			Threshold: thr, ProtectUS: res.protectUS, FullFlushes: res.stats.FullFlushes,
		})
	}
	return out, nil
}

// rangeProtectResult is the raw outcome of runRangeProtect.
type rangeProtectResult struct {
	protectUS float64
	stats     core.Stats
}

// runRangeProtect builds a 6-CPU machine, lets 4 threads cache a
// thresholdPages-page writable range, and reprotects the whole range.
func runRangeProtect(seed int64, opts core.Options, in Instrument) (rangeProtectResult, error) {
	var out rangeProtectResult
	k, err := in.runWorld(kernel.Config{
		Machine:   machine.Options{NumCPUs: 6, MemFrames: 2048, Seed: seed},
		Shootdown: opts,
	}, func(k *kernel.Kernel) error {
		task, err := k.NewTask("range")
		if err != nil {
			return err
		}
		task.Spawn("main", func(th *kernel.Thread) {
			va, err := th.VMAllocate(uint32(thresholdPages * mem.PageSize))
			if err != nil {
				th.Fail(err)
				return
			}
			done := false
			for i := 0; i < 4; i++ {
				i := i
				task.Spawn(fmt.Sprintf("user%d", i), func(c *kernel.Thread) {
					for !done {
						for p := 0; p < thresholdPages; p++ {
							if c.Write(va+ptable.VAddr(p*mem.PageSize), uint32(i)) != nil {
								break
							}
						}
						c.Compute(50_000)
					}
				})
			}
			th.Compute(4_000_000)
			t0 := th.Now()
			if err := th.VMProtect(va, va+ptable.VAddr(thresholdPages*mem.PageSize), pmap.ProtRead); err != nil {
				th.Fail(err)
				return
			}
			out.protectUS = (th.Now() - t0).Microseconds()
			done = true
		})
		return nil
	})
	if err != nil {
		return out, err
	}
	out.stats = k.Shoot.Stats()
	return out, nil
}

// Doc is the sweep.
func (r ThresholdResult) Doc() Doc {
	var d Doc
	d.line("Ablation: invalidate-vs-flush threshold (§4) — reprotect of a %d-page range\n", r.Pages)
	d.row("threshold (pages)\tprotect latency (µs)\tfull flushes")
	for _, row := range r.Rows {
		d.row("%d\t%.0f\t%d", row.Threshold, row.ProtectUS, row.FullFlushes)
	}
	d.line("\n(beyond the threshold a whole-buffer flush is faster than individual")
	d.line(" invalidates; the cost is collateral loss of unrelated entries)")
	return d
}

// QueueResult sweeps the consistency-action queue size (§4 detail 2).
type QueueResult struct {
	Rows []QueueRow
}

// QueueRow is one queue-size setting.
type QueueRow struct {
	QueueSize   int
	Overflows   uint64
	FullFlushes uint64
}

// QueueSize issues many small kernel shootdowns at a machine whose other
// processors are idle, so their action queues accumulate until drained.
func QueueSize(a *Args) (QueueResult, error) {
	var out QueueResult
	for _, q := range []int{1, 2, 4, 8, 32} {
		k, err := a.In.runWorld(kernel.Config{
			Machine:   machine.Options{NumCPUs: 4, MemFrames: 2048, Seed: a.Seed},
			Shootdown: core.Options{QueueSize: q},
		}, func(k *kernel.Kernel) error {
			ktask := k.KernelTask()
			ktask.Spawn("worker", func(th *kernel.Thread) {
				// 12 separate one-page shootdowns queue at the idle CPUs.
				var vas []ptable.VAddr
				for i := 0; i < 12; i++ {
					va, err := th.KernelAllocate(mem.PageSize)
					if err != nil {
						th.Fail(err)
						return
					}
					if err := th.Write(va, 1); err != nil {
						th.Fail(err)
						return
					}
					vas = append(vas, va)
				}
				for _, va := range vas {
					if err := th.KernelDeallocate(va, va+mem.PageSize); err != nil {
						th.Fail(err)
						return
					}
				}
				// Hand the CPUs over so the idle processors dispatch threads
				// and drain their action queues — the overflow-to-flush path
				// runs at that point.
				var drainers []*kernel.Thread
				for i := 0; i < 3; i++ {
					drainers = append(drainers, ktask.Spawn(fmt.Sprintf("drainer%d", i), func(d *kernel.Thread) {
						d.Compute(1_000_000)
					}))
				}
				for _, d := range drainers {
					th.Join(d)
				}
			})
			return nil
		})
		if err != nil {
			return out, err
		}
		st := k.Shoot.Stats()
		out.Rows = append(out.Rows, QueueRow{QueueSize: q, Overflows: st.QueueOverflows, FullFlushes: st.FullFlushes})
	}
	return out, nil
}

// Doc is the sweep.
func (r QueueResult) Doc() Doc {
	var d Doc
	d.line("Ablation: action-queue size (§4) — 12 one-page kernel shootdowns at idle CPUs\n")
	d.row("queue size\toverflows\tfull flushes")
	for _, row := range r.Rows {
		d.row("%d\t%d\t%d", row.QueueSize, row.Overflows, row.FullFlushes)
	}
	d.line("\n(overflow degrades to a full TLB flush — never a lost invalidation; the paper")
	d.line(" sizes the queue so overflow only happens when the flush is cheaper anyway)")
	return d
}
