package explore

import (
	"sort"

	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
	"shootdown/internal/oracle"
)

// maxShrinkRuns bounds the candidate re-executions of one shrink
// campaign.
const maxShrinkRuns = 48

// Shrink delta-debugs one failing run's fired fault schedule down to a
// 1-minimal subset, at most maxShrinkRuns candidates, and packages it as
// a replayable reproducer. cell is the run's fixture, verdict what it
// produced, events its fired schedule and endStep the engine step at
// which it ended. Each candidate is a fresh world with every fired event
// outside its keep set masked, stopped at its first oracle violation and
// bounded at endStep + endStep/2 + 5,000 steps: masking shifts schedules,
// so the bound is generous, but it keeps a candidate that no longer fails
// from running to the end of its workload (or its 30-virtual-second
// timeout). wall, when set, is a millisecond wall clock for the
// campaign's accounting; the experiments layer is simulated code and may
// not read real time itself, so package main supplies it.
func Shrink(cell Cell, verdict string, events []fault.Event, endStep uint64, wall func() int64) shrink.Repro {
	cell = cell.withDefaults()
	cell.Flight = nil // re-executions must not dump black boxes
	var startMS int64
	if wall != nil {
		startMS = wall()
	}
	all := make([]fault.EventID, len(events))
	for i, e := range events {
		all[i] = e.ID
	}
	// masked is cell with every fired event outside keep added to its mask.
	masked := func(keep []fault.EventID) Cell {
		c := cell
		c.Fault.Mask = append(append([]fault.EventID(nil), cell.Fault.Mask...), shrink.MaskFor(all, keep)...)
		return c
	}
	bound := endStep + endStep/2 + 5_000
	res := shrink.Minimize(all, func(keep []fault.EventID) bool {
		return candidate(masked(keep), bound) == verdict
	}, maxShrinkRuns)
	meta := &shrink.Meta{Tests: res.Tests}
	if wall != nil {
		meta.WallMS = wall() - startMS
	}

	cfg := masked(res.Keep).Fault
	sort.Slice(cfg.Mask, func(i, j int) bool {
		if cfg.Mask[i].Kind != cfg.Mask[j].Kind {
			return cfg.Mask[i].Kind < cfg.Mask[j].Kind
		}
		return cfg.Mask[i].Seq < cfg.Mask[j].Seq
	})
	return shrink.Repro{
		Version:  shrink.ReproVersion,
		Workload: cell.Workload,
		Seed:     cell.Seed,
		NCPUs:    cell.NCPUs,
		Devices:  cell.Devices,
		Faults:   cfg,
		Keep:     res.Keep,
		Verdict:  verdict,
		Bug:      cell.Bug,
		Shrink:   meta,
	}
}

// candidate runs one shrink candidate, stopping at its first oracle
// violation, and returns the run's verdict. A world still paused at step
// bound has not reproduced the failure: it is ok. Either way the world is
// closed.
func candidate(cell Cell, bound uint64) string {
	k, err := cell.Start()
	if err != nil {
		return kernel.VerdictError
	}
	defer k.Close()
	armStopOnViolation(k)
	if paused, err := k.RunTo(bound); !paused {
		return kernel.Verdict(err)
	}
	return kernel.VerdictOK
}

// armStopOnViolation makes the first oracle violation stop the engine at
// the next event boundary, so a failing candidate ends in O(time to
// violation) instead of running its workload to completion. The verdict
// still comes from Finish -> Oracle.Check, exactly as in a full run.
func armStopOnViolation(k *kernel.Kernel) {
	if k.Oracle == nil {
		return
	}
	prev := k.Oracle.OnViolation
	k.Oracle.OnViolation = func(v oracle.Violation) {
		if prev != nil {
			prev(v)
		}
		// Stopping the engine is this hook's entire purpose: the shrinker
		// wants the run to end at the violation, not observe it silently.
		//lint:allow hookpurity deliberately impure: stop-on-violation exists to halt the engine early
		k.Eng.Stop()
	}
}
