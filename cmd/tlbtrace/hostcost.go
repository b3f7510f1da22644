package main

import (
	"flag"
	"fmt"

	"shootdown/internal/hostprof"
)

// cmdHostCost renders and validates a host-cost/v1 artifact: the per-phase
// host seconds / allocator deltas and the top-N allocating functions and
// packages, with an optional gate on how much of each phase's measured
// bytes the memory profile attributed.
func cmdHostCost(args []string) error {
	fs := flag.NewFlagSet("hostcost", flag.ExitOnError)
	top := fs.Int("top", 10, "functions and packages to print per report")
	validate := fs.Bool("validate", false, "check the artifact's internal consistency (format tag, provenance, per-phase row sums, coverage recomputation)")
	minCov := fs.Float64("mincoverage", 0, "fail unless every phase attributes between this percentage and 200 minus it of its measured bytes (99 allows 1% either way)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tlbtrace hostcost [-top N] [-validate] [-mincoverage pct] <host-cost.json>")
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
	fmt.Print(r.Render(*top))
	return nil
}
