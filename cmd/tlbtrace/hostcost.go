package main

import (
	"flag"
	"fmt"

	"shootdown/internal/hostprof"
)

// cmdHostCost renders and validates a host-cost/v1 artifact: the per-phase
// host seconds / allocator deltas and the top-N allocating functions and
// packages, with optional gates on how much of each phase's measured
// bytes the memory profile attributed and on each package's bytes.
func cmdHostCost(args []string) error {
	fs := flag.NewFlagSet("hostcost", flag.ExitOnError)
	top := fs.Int("top", 10, "functions and packages to print per report")
	validate := fs.Bool("validate", false, "check the artifact's internal consistency (format tag, provenance, per-phase row sums, coverage recomputation)")
	minCov := fs.Float64("mincoverage", 0, "fail unless every phase attributes between this percentage and 200 minus it of its measured bytes (99 allows 1% either way)")
	budget := fs.String("budget", "", "fail when a package allocates more than its ceiling in this budget file (\"phase package max-bytes\" lines), or allocates in a budgeted phase without one")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tlbtrace hostcost [-top N] [-validate] [-mincoverage pct] [-budget file] <host-cost.json>")
	}
	r, err := hostprof.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	if *validate {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("%s: %v", fs.Arg(0), err)
		}
		fmt.Printf("hostcost: %s: valid %s artifact, %d phases, headline %q\n",
			fs.Arg(0), r.Format, len(r.Phases), r.Headline)
	}
	if *minCov > 0 {
		if err := r.CheckCoverage(*minCov); err != nil {
			return fmt.Errorf("%s: %v", fs.Arg(0), err)
		}
		fmt.Printf("hostcost: every phase attributes within %.0f%% of its measured bytes (headline %.2f%%)\n",
			100-*minCov, r.CoveragePct)
	}
	if *budget != "" {
		b, err := hostprof.LoadBudget(*budget)
		if err != nil {
			return err
		}
		if err := r.CheckBudget(b); err != nil {
			return fmt.Errorf("%s: over budget %s:\n%v", fs.Arg(0), *budget, err)
		}
		fmt.Printf("hostcost: every budgeted package is within its ceiling in %s\n", *budget)
	}
	fmt.Print(r.Render(*top))
	return nil
}
