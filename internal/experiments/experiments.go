// Package experiments regenerates every table and figure in the paper's
// evaluation (Sections 5-8) plus the Section 9 hardware-option ablations.
// Each experiment returns a structured result with a Render method that
// prints rows in the shape the paper reports. Catalog lists them in one
// ordered list, which cmd/shootdownsim runs and TestExperimentDigests
// pins; the repository benchmarks re-run some of them directly.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"shootdown/internal/stats"
	"shootdown/internal/workload"
)

// Fig2Result reproduces Figure 2: basic costs of TLB shootdown.
type Fig2Result struct {
	workload.BasicCostResult
}

// Fig2 runs the consistency tester with 1..15 child threads on a 16-CPU
// machine, runs times each, and fits the paper's trend line on 1..12.
func Fig2(seed int64, runs int, ins ...Instrument) (Fig2Result, error) {
	res, err := workload.RunBasicCost(workload.BasicCostConfig{
		NCPUs:    16,
		MaxK:     15,
		Runs:     runs,
		BaseSeed: seed,
		App:      pick(ins).App(workload.AppConfig{}),
	})
	return Fig2Result{res}, err
}

// Render prints the figure's data series and the fitted constants.
func (r Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: Basic Costs of TLB Shootdown (16-CPU simulated Multimax)\n")
	fmt.Fprintf(&b, "paper: time = 430 + 55*n µs (fit on 1..12; 13-15 depart due to bus congestion)\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "processors\tmean (µs)\tstd dev\ttrend (µs)\texcess\n")
	for _, p := range r.Points {
		trend := r.Fit.At(float64(p.Processors))
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.0f\t%+.0f\n", p.Processors, p.MeanUS, p.StdUS, trend, p.MeanUS-trend)
	}
	w.Flush()
	fmt.Fprintf(&b, "\nleast-squares fit (1..%d): %.0f + %.1f*n µs  (R² = %.4f)\n",
		r.FitMaxK, r.Fit.Intercept, r.Fit.Slope, r.Fit.R2)
	fmt.Fprintf(&b, "extrapolation to 100 processors (§11): %.1f ms (paper: ~6 ms)\n", r.At100US/1000)
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "WARNING: %d trace records lost to buffer wraparound — means above are incomplete\n", r.Dropped)
	}
	return b.String()
}

// Table1Result reproduces Table 1: effect of lazy evaluation on shootdowns.
type Table1Result struct {
	// [app][lazy] where lazy index 0 = enabled, 1 = disabled.
	Mach      [2]workload.AppResult
	Parthenon [2]workload.AppResult
}

// Table1 runs the Mach build and Parthenon with lazy evaluation on and off.
func Table1(seed int64, ins ...Instrument) (Table1Result, error) {
	in := pick(ins)
	var out Table1Result
	for i, lazyOff := range []bool{false, true} {
		m, err := workload.RunMachBuild(in.App(workload.AppConfig{Seed: seed, LazyDisabled: lazyOff}))
		if err != nil {
			return out, fmt.Errorf("mach build (lazyOff=%v): %w", lazyOff, err)
		}
		out.Mach[i] = m
		p, err := workload.RunParthenon(in.App(workload.AppConfig{Seed: seed, LazyDisabled: lazyOff}))
		if err != nil {
			return out, fmt.Errorf("parthenon (lazyOff=%v): %w", lazyOff, err)
		}
		out.Parthenon[i] = p
	}
	return out, nil
}

// Render prints the table in the paper's layout.
func (r Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Effect of Lazy Evaluation on Shootdowns\n")
	fmt.Fprintf(&b, "paper: Mach 3827/8091 kernel events (lazy/no); Parthenon 4/107 kernel, 0/70 user\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "Application\tMach\t\tParthenon\t\n")
	fmt.Fprintf(w, "Lazy\tYes\tNo\tYes\tNo\n")
	fmt.Fprintf(w, "Kernel Events\t%d\t%d\t%d\t%d\n",
		r.Mach[0].KernelEvents(), r.Mach[1].KernelEvents(),
		r.Parthenon[0].KernelEvents(), r.Parthenon[1].KernelEvents())
	fmt.Fprintf(w, "Avg. Time (µs)\t%.0f\t%.0f\t%.0f\t%.0f\n",
		r.Mach[0].KernelSummary().Mean, r.Mach[1].KernelSummary().Mean,
		r.Parthenon[0].KernelSummary().Mean, r.Parthenon[1].KernelSummary().Mean)
	fmt.Fprintf(w, "User Events\t%d\t%d\t%d\t%d\n",
		r.Mach[0].UserEvents(), r.Mach[1].UserEvents(),
		r.Parthenon[0].UserEvents(), r.Parthenon[1].UserEvents())
	fmt.Fprintf(w, "Avg. Time (µs)\t%.0f\t%.0f\t%.0f\t%.0f\n",
		r.Mach[0].UserSummary().Mean, r.Mach[1].UserSummary().Mean,
		r.Parthenon[0].UserSummary().Mean, r.Parthenon[1].UserSummary().Mean)
	w.Flush()
	ovLazy := totalOverheadUS(r.Mach[0])
	ovNo := totalOverheadUS(r.Mach[1])
	if ovNo > 0 {
		fmt.Fprintf(&b, "\nMach build total overhead reduction from lazy evaluation: %.0f%% (paper: ~60%%)\n",
			100*(1-ovLazy/ovNo))
	}
	pLazy := totalOverheadUS(r.Parthenon[0])
	pNo := totalOverheadUS(r.Parthenon[1])
	if pNo > 0 {
		fmt.Fprintf(&b, "Parthenon total overhead reduction: %.0f%% (paper: >97%%)\n", 100*(1-pLazy/pNo))
	}
	return b.String()
}

// totalOverheadUS is events x mean time, the paper's "total overhead".
func totalOverheadUS(r workload.AppResult) float64 {
	return float64(r.KernelEvents())*r.KernelSummary().Mean +
		float64(r.UserEvents())*r.UserSummary().Mean
}

// TablesResult holds one instrumented run of each evaluation application;
// Tables 2, 3, and 4 are different views of the same four runs.
type TablesResult struct {
	Apps []workload.AppResult // Mach, Parthenon, Agora, Camelot
}

// Tables234 runs the four applications with the instrumented kernel.
func Tables234(seed int64, ins ...Instrument) (TablesResult, error) {
	in := pick(ins)
	var out TablesResult
	for _, run := range []func(workload.AppConfig) (workload.AppResult, error){
		workload.RunMachBuild, workload.RunParthenon, workload.RunAgora, workload.RunCamelot,
	} {
		r, err := run(in.App(workload.AppConfig{Seed: seed}))
		if err != nil {
			return out, err
		}
		out.Apps = append(out.Apps, r)
	}
	return out, nil
}

func fmtOrNM(s stats.Summary, f float64) string {
	if s.NM {
		return "NM"
	}
	return fmt.Sprintf("%.0f", f)
}

// RenderTable2 prints the kernel-pmap initiator results.
func (r TablesResult) RenderTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Kernel Pmap Shootdown Results: Initiator\n")
	fmt.Fprintf(&b, "paper: events 7494/4/88/68; means 1109-1641 µs; skewed (median<mean); Agora bimodal => NM\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "Application\tEvents\tMean±Std (µs)\tMedian\t10th %%\t90th %%\tProcs (mean)\n")
	for _, a := range r.Apps {
		s := a.KernelSummary()
		fmt.Fprintf(w, "%s\t%d\t%.0f±%.0f\t%s\t%s\t%s\t%.1f\n",
			a.Name, a.KernelEvents(), s.Mean, s.StdDev,
			fmtOrNM(s, s.Median), fmtOrNM(s, s.P10), fmtOrNM(s, s.P90),
			stats.Mean(a.KernelProcs))
	}
	w.Flush()
	return b.String()
}

// RenderTable3 prints the user-pmap initiator results.
func (r TablesResult) RenderTable3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: User Pmap Shootdown Results: Initiator\n")
	fmt.Fprintf(&b, "paper: only Camelot causes user shootdowns; mean 588±591 µs; pages 1..360\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "Application\tEvents\tMean±Std (µs)\tMedian\tPages (min..max, mean)\n")
	for _, a := range r.Apps {
		if a.UserEvents() == 0 {
			fmt.Fprintf(w, "%s\t0\t-\t-\t-\n", a.Name)
			continue
		}
		s := a.UserSummary()
		minP, maxP := a.UserPages[0], a.UserPages[0]
		for _, p := range a.UserPages {
			if p < minP {
				minP = p
			}
			if p > maxP {
				maxP = p
			}
		}
		fmt.Fprintf(w, "%s\t%d\t%.0f±%.0f\t%s\t%.0f..%.0f, %.1f\n",
			a.Name, a.UserEvents(), s.Mean, s.StdDev, fmtOrNM(s, s.Median),
			minP, maxP, stats.Mean(a.UserPages))
	}
	w.Flush()
	return b.String()
}

// RenderTable4 prints the responder results (sampled on 5 of 16 CPUs).
func (r TablesResult) RenderTable4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Responder Results (sampled on 5 of 16 processors)\n")
	fmt.Fprintf(&b, "paper: responder costs below initiator costs; Camelot nearly symmetric\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "Application\tEvents\tMean±Std (µs)\tMedian\t10th %%\t90th %%\n")
	for _, a := range r.Apps {
		s := a.ResponderSummary()
		fmt.Fprintf(w, "%s\t%d\t%.0f±%.0f\t%s\t%s\t%s\n",
			a.Name, len(a.ResponderUS), s.Mean, s.StdDev,
			fmtOrNM(s, s.Median), fmtOrNM(s, s.P10), fmtOrNM(s, s.P90))
	}
	w.Flush()
	return b.String()
}

// RenderOverhead prints the Section 8 overhead analysis.
func (r TablesResult) RenderOverhead() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 8: Shootdown Overhead (pessimistic machine-wide scaling)\n")
	fmt.Fprintf(&b, "paper: largest overheads ~1%% kernel (Mach build), <0.2%% user (Camelot)\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "Application\truntime (s)\tkernel ovh\tuser ovh\n")
	for _, a := range r.Apps {
		fmt.Fprintf(w, "%s\t%.1f\t%.2f%%\t%.2f%%\n",
			a.Name, a.Runtime.Duration().Seconds(),
			a.OverheadPct(16, true), a.OverheadPct(16, false))
	}
	w.Flush()
	return b.String()
}

// PerturbationResult reproduces §6.1's instrumentation-validation check.
type PerturbationResult struct {
	TracedRuntime   float64 // seconds, instrumented
	UntracedRuntime float64 // seconds, instrumentation off
	PerturbationPct float64
	// SeedSpreadPct is run-to-run variation across seeds, the "other
	// effects (e.g. timer interrupts)" yardstick the paper compares to.
	SeedSpreadPct float64
}

// Perturbation runs Parthenon (lazy disabled, as the paper did to maximize
// sensitivity) with and without instrumentation, and measures run-to-run
// spread across seeds for comparison.
func Perturbation(seed int64, ins ...Instrument) (PerturbationResult, error) {
	in := pick(ins)
	var out PerturbationResult
	on, err := workload.RunParthenon(in.App(workload.AppConfig{Seed: seed, LazyDisabled: true}))
	if err != nil {
		return out, err
	}
	off, err := workload.RunParthenon(in.App(workload.AppConfig{Seed: seed, LazyDisabled: true, TraceOff: true}))
	if err != nil {
		return out, err
	}
	out.TracedRuntime = on.Runtime.Duration().Seconds()
	out.UntracedRuntime = off.Runtime.Duration().Seconds()
	if out.UntracedRuntime > 0 {
		out.PerturbationPct = 100 * (out.TracedRuntime - out.UntracedRuntime) / out.UntracedRuntime
	}
	var sample stats.Sample
	for s := int64(0); s < 5; s++ {
		r, err := workload.RunParthenon(in.App(workload.AppConfig{Seed: seed + 100 + s, LazyDisabled: true, TraceOff: true}))
		if err != nil {
			return out, err
		}
		sample.Add(r.Runtime.Duration().Seconds())
	}
	if m := sample.Mean(); m > 0 {
		out.SeedSpreadPct = 100 * (sample.Max() - sample.Min()) / m
	}
	return out, nil
}

// Render prints the perturbation comparison.
func (r PerturbationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6.1: Measurement Validation (Parthenon, lazy evaluation disabled)\n")
	fmt.Fprintf(&b, "paper: ~1.5%% perturbation, swamped by 8-10%% runtime variation from other effects\n\n")
	fmt.Fprintf(&b, "instrumented runtime:    %.3f s\n", r.TracedRuntime)
	fmt.Fprintf(&b, "uninstrumented runtime:  %.3f s\n", r.UntracedRuntime)
	fmt.Fprintf(&b, "perturbation:            %.2f%%\n", r.PerturbationPct)
	fmt.Fprintf(&b, "seed-to-seed spread:     %.2f%% (the noise floor)\n", r.SeedSpreadPct)
	return b.String()
}

// ScaleResult reproduces the §8/§11 scaling analysis.
type ScaleResult struct {
	FitIntercept float64
	FitSlope     float64
	At100MS      float64
	// Measured holds directly simulated large-machine shootdowns.
	Measured []ScalePoint
}

// ScalePoint is one measured machine size.
type ScalePoint struct {
	NCPUs      int
	Procs      int // processors shot at (NCPUs-1)
	MeasuredUS float64
	TrendUS    float64
}

// Scale fits the trend line on the 16-CPU machine and then actually builds
// larger simulated machines to compare measurement against extrapolation
// (the paper could only extrapolate; the simulator can measure).
func Scale(seed int64, runs int, ins ...Instrument) (ScaleResult, error) {
	in := pick(ins)
	var out ScaleResult
	fit, err := Fig2(seed, runs, ins...)
	if err != nil {
		return out, err
	}
	out.FitIntercept = fit.Fit.Intercept
	out.FitSlope = fit.Fit.Slope
	out.At100MS = fit.Fit.At(100) / 1000
	for _, n := range []int{16, 24, 32, 48, 64} {
		var sample stats.Sample
		for r := 0; r < runs; r++ {
			res, err := workload.RunTester(workload.TesterConfig{
				NCPUs: n, Children: n - 1, Seed: seed + int64(n*100+r),
				App: in.App(workload.AppConfig{}),
			})
			if err != nil {
				return out, err
			}
			sample.Add(res.ShootUS)
		}
		out.Measured = append(out.Measured, ScalePoint{
			NCPUs:      n,
			Procs:      n - 1,
			MeasuredUS: sample.Mean(),
			TrendUS:    fit.Fit.At(float64(n - 1)),
		})
	}
	return out, nil
}

// Render prints the scaling comparison.
func (r ScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sections 8/11: Scaling of Shootdown Cost\n")
	fmt.Fprintf(&b, "paper: linear scaling is 'a warning'; ~6 ms basic shootdown at 100 processors\n\n")
	fmt.Fprintf(&b, "trend line: %.0f + %.1f*n µs -> %.1f ms at n=100\n\n", r.FitIntercept, r.FitSlope, r.At100MS)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "machine CPUs\tprocessors shot\tmeasured (µs)\ttrend (µs)\tmeasured/trend\n")
	for _, p := range r.Measured {
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%.0f\t%.2fx\n", p.NCPUs, p.Procs, p.MeasuredUS, p.TrendUS, p.MeasuredUS/p.TrendUS)
	}
	w.Flush()
	fmt.Fprintf(&b, "\n(measured > trend at large sizes: the shared bus congests, as §8 warns;\n")
	fmt.Fprintf(&b, " §8's proposed fix — processor pools matching the NUMA structure — bounds n per shootdown)\n")
	return b.String()
}
