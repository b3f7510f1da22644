package experiments

import (
	"fmt"

	"shootdown/internal/hostprof"
	"shootdown/internal/workload"
)

// HostCostResult carries the sealed host-cost/v1 report.
type HostCostResult struct {
	Report *hostprof.Report
}

// Render prints the per-phase, top-function, and top-package tables.
func (r HostCostResult) Render() string { return r.Report.Render(10) }

// snapPhasePauseStep matches internal/workload's snapshot benchmarks'
// pause point, so the snapshot phase measures the same mid-run world they
// do.
const snapPhasePauseStep = 1000

// hostCostFig2Runs is the fig2 phase's repetition count: three runs per
// point, the scale the byte budget for the phase was seeded at.
const hostCostFig2Runs = 3

// HostCost attributes the simulator's real heap and wall spend to its
// functions and packages. It runs three phases, each attributed from the
// runtime's memory profile against its own allocator delta:
//
//	fig2     — experiments.Fig2(seed, hostCostFig2Runs): the headline
//	           phase, the whole Figure 2 sweep at three runs per point.
//	table1   — experiments.Table1(a): the lazy-evaluation workloads.
//	snapshot — a paused churn world plus one whole-simulation snapshot,
//	           the unit the shrinker and explorer amortize.
//
// a.Sampler measures each phase and a.Commit is stamped into the report.
// The returned report names the top allocating functions — where a host
// speed overhaul must aim first.
func HostCost(a *Args) (HostCostResult, error) {
	var out HostCostResult
	if a.Sampler == nil {
		return out, fmt.Errorf("hostcost: no sampler (construct hostprof.NewSampler in package main and inject it)")
	}
	seed, in := a.Seed, a.In
	phase := a.Sampler.Phase

	if err := phase("fig2", func() error {
		_, err := Fig2(seed, hostCostFig2Runs, in)
		return err
	}); err != nil {
		return out, fmt.Errorf("hostcost: fig2 phase: %w", err)
	}
	if err := phase("table1", func() error {
		_, err := Table1(a)
		return err
	}); err != nil {
		return out, fmt.Errorf("hostcost: table1 phase: %w", err)
	}
	if err := phase("snapshot", func() error {
		cfg := in.App(workload.AppConfig{NCPUs: 4, Seed: seed, Scale: 0.5, Oracle: true})
		k, err := workload.StartChurn(cfg)
		if err != nil {
			return err
		}
		paused, err := k.RunTo(snapPhasePauseStep)
		if paused {
			_, snapErr := k.Snapshot()
			if err = k.Run(); snapErr != nil {
				err = snapErr
			}
		}
		workload.CollectChurn(cfg, k)
		return err
	}); err != nil {
		return out, fmt.Errorf("hostcost: snapshot phase: %w", err)
	}

	rep, err := a.Sampler.Report("fig2")
	if err != nil {
		return out, err
	}
	rep.Commit = a.Commit
	out.Report = rep
	return out, nil
}
