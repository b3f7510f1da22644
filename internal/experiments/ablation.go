package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

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
	// KeepTimer keeps the clock interrupt the tester otherwise stops;
	// timer-flush relies on it.
	KeepTimer bool
	App       workload.AppConfig
}

// Mechanisms are the alternatives StrategyCompare measures against Mach's
// shootdown; cmd/tlbtest's -strategy accepts their names.
var Mechanisms = []Mechanism{
	{"hardware-remote", false, workload.AppConfig{
		RemoteInvalidate: true,
		TLB:              tlb.Config{Writeback: tlb.WritebackInterlocked},
		Strategy: func(m *machine.Machine) (core.Strategy, error) {
			return baseline.NewHardwareRemote(m)
		},
	}},
	{"postponed-ipi", false, workload.AppConfig{
		TLB: tlb.Config{Writeback: tlb.WritebackNone},
		Strategy: func(m *machine.Machine) (core.Strategy, error) {
			return baseline.NewPostponedIPI(m)
		},
	}},
	{"timer-flush", true, workload.AppConfig{
		TLB: tlb.Config{Writeback: tlb.WritebackInterlocked},
		Strategy: func(m *machine.Machine) (core.Strategy, error) {
			return baseline.NewTimerFlush(m)
		},
	}},
}

// StrategyCompare measures the vm_protect latency of each mechanism.
func StrategyCompare(seed int64, ks []int, ins ...Instrument) (StrategyCompareResult, error) {
	in := pick(ins)
	if len(ks) == 0 {
		ks = []int{2, 6, 12}
	}
	var out StrategyCompareResult
	for _, c := range append([]Mechanism{{Name: "mach-shootdown"}}, Mechanisms...) {
		for _, k := range ks {
			res, err := workload.RunTester(workload.TesterConfig{
				NCPUs: 16, Children: k, Seed: seed + int64(k),
				KeepTimer: c.KeepTimer, App: in.App(c.App),
			})
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

// Render prints the comparison.
func (r StrategyCompareResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: consistency mechanisms (§3, §9) — vm_protect latency, one page, k users\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "strategy\tk\tprotect latency (µs)\tconsistent\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%v\n", row.Strategy, row.Children, row.ProtectUS, row.Consistent)
	}
	w.Flush()
	fmt.Fprintf(&b, "\n(hardware remote invalidation removes responder involvement entirely; the\n")
	fmt.Fprintf(&b, " postponed interrupt removes the stall barrier; timer flushing trades all\n")
	fmt.Fprintf(&b, " interrupt machinery for multi-millisecond operation latency)\n")
	return b.String()
}

// IPIModeResult compares unicast / multicast / broadcast interrupt
// hardware (§9's "hardware support for multicast interrupts would help").
type IPIModeResult struct {
	Ks   []int
	Rows map[string][]float64 // mode -> shootdown µs per k
}

// IPIModes sweeps the shootdown cost across delivery hardware.
func IPIModes(seed int64, ks []int, ins ...Instrument) (IPIModeResult, error) {
	in := pick(ins)
	if len(ks) == 0 {
		ks = []int{1, 3, 6, 9, 12, 15}
	}
	out := IPIModeResult{Ks: ks, Rows: map[string][]float64{}}
	for _, mode := range []machine.IPIMode{machine.IPIUnicast, machine.IPIMulticast, machine.IPIBroadcast} {
		for _, k := range ks {
			res, err := workload.RunTester(workload.TesterConfig{
				NCPUs: 16, Children: k, Seed: seed + int64(k),
				App: in.App(workload.AppConfig{IPIMode: mode}),
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

// Render prints the sweep and the unicast/multicast crossover.
func (r IPIModeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: IPI delivery hardware (§9) — shootdown cost by processors shot at\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "k\tunicast (µs)\tmulticast (µs)\tbroadcast (µs)\n")
	cross := -1
	for i, k := range r.Ks {
		u, m, bc := r.Rows["unicast"][i], r.Rows["multicast"][i], r.Rows["broadcast"][i]
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.0f\n", k, u, m, bc)
		if cross < 0 && m < u {
			cross = k
		}
	}
	w.Flush()
	if cross >= 0 {
		fmt.Fprintf(&b, "\nmulticast beats the unicast send loop from k=%d on\n", cross)
	}
	fmt.Fprintf(&b, "(\"beyond some number of processors it is faster to use a broadcast interrupt\n")
	fmt.Fprintf(&b, " than it is to iterate down the list interrupting one processor at a time\")\n")
	return b.String()
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
func HighPriorityIPI(seed int64, ins ...Instrument) (HighPriorityIPIResult, error) {
	in := pick(ins)
	var out HighPriorityIPIResult
	run := func(hp bool) ([]float64, error) {
		k, err := in.runWorld(kernel.Config{
			Machine: machine.Options{NumCPUs: 4, MemFrames: 2048, Seed: seed, HighPriorityIPI: hp},
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

// Render prints the distribution comparison.
func (r HighPriorityIPIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: high-priority software interrupt (§9, Mach build kernel shootdowns)\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "hardware\tmean (µs)\tmedian\t90th %%\tmax\n")
	fmt.Fprintf(w, "stock (IPI masked with devices)\t%.0f\t%.0f\t%.0f\t%.0f\n",
		r.Stock.Mean, r.Stock.Median, r.Stock.P90, r.StockMax)
	fmt.Fprintf(w, "high-priority software interrupt\t%.0f\t%.0f\t%.0f\t%.0f\n",
		r.HighPrio.Mean, r.HighPrio.Median, r.HighPrio.P90, r.HPMax)
	w.Flush()
	fmt.Fprintf(&b, "\n(\"this would reduce the time for kernel shootdowns to more closely match user\n")
	fmt.Fprintf(&b, " shootdowns, and eliminate the skew caused by long periods of interrupt disablement\")\n")
	return b.String()
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
func IdleOpt(seed int64, ins ...Instrument) (IdleOptResult, error) {
	in := pick(ins)
	var out IdleOptResult
	run := func(disable bool) (float64, uint64, error) {
		k, err := in.runWorld(kernel.Config{
			Machine:   machine.Options{NumCPUs: 16, MemFrames: 2048, Seed: seed},
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

// Render prints the comparison.
func (r IdleOptResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: idle-processor optimization (§4) — kernel shootdowns, 15 idle CPUs\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "configuration\tinitiator mean (µs)\tIPIs sent\n")
	fmt.Fprintf(w, "optimization on (queue only for idle)\t%.0f\t%d\n", r.WithOptUS, r.IPIsWith)
	fmt.Fprintf(w, "optimization off (interrupt everyone)\t%.0f\t%d\n", r.WithoutOptUS, r.IPIsWithout)
	w.Flush()
	fmt.Fprintf(&b, "\nspeedup from not synchronizing with idle processors: %.1fx\n", r.WithoutOptUS/r.WithOptUS)
	return b.String()
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

// FlushThreshold reprotects a Pages-page range cached by 4 CPUs under
// various thresholds.
func FlushThreshold(seed int64, pages int, ins ...Instrument) (ThresholdResult, error) {
	if pages == 0 {
		pages = 16
	}
	out := ThresholdResult{Pages: pages}
	for _, thr := range []int{1, 4, 8, 16, 64} {
		res, err := runRangeProtect(seed, pages, core.Options{FlushThreshold: thr}, pick(ins))
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

// runRangeProtect builds a 6-CPU machine, lets 4 threads cache a multi-page
// writable range, and reprotects the whole range.
func runRangeProtect(seed int64, pages int, opts core.Options, in Instrument) (rangeProtectResult, error) {
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
			va, err := th.VMAllocate(uint32(pages * mem.PageSize))
			if err != nil {
				th.Fail(err)
				return
			}
			done := false
			for i := 0; i < 4; i++ {
				i := i
				task.Spawn(fmt.Sprintf("user%d", i), func(c *kernel.Thread) {
					for !done {
						for p := 0; p < pages; p++ {
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
			if err := th.VMProtect(va, va+ptable.VAddr(pages*mem.PageSize), pmap.ProtRead); err != nil {
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

// Render prints the sweep.
func (r ThresholdResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: invalidate-vs-flush threshold (§4) — reprotect of a %d-page range\n\n", r.Pages)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "threshold (pages)\tprotect latency (µs)\tfull flushes\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d\t%.0f\t%d\n", row.Threshold, row.ProtectUS, row.FullFlushes)
	}
	w.Flush()
	fmt.Fprintf(&b, "\n(beyond the threshold a whole-buffer flush is faster than individual\n")
	fmt.Fprintf(&b, " invalidates; the cost is collateral loss of unrelated entries)\n")
	return b.String()
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
func QueueSize(seed int64, ins ...Instrument) (QueueResult, error) {
	in := pick(ins)
	var out QueueResult
	for _, q := range []int{1, 2, 4, 8, 32} {
		k, err := in.runWorld(kernel.Config{
			Machine:   machine.Options{NumCPUs: 4, MemFrames: 2048, Seed: seed},
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

// Render prints the sweep.
func (r QueueResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: action-queue size (§4) — 12 one-page kernel shootdowns at idle CPUs\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "queue size\toverflows\tfull flushes\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d\t%d\t%d\n", row.QueueSize, row.Overflows, row.FullFlushes)
	}
	w.Flush()
	fmt.Fprintf(&b, "\n(overflow degrades to a full TLB flush — never a lost invalidation; the paper\n")
	fmt.Fprintf(&b, " sizes the queue so overflow only happens when the flush is cheaper anyway)\n")
	return b.String()
}
