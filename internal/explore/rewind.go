package explore

import (
	"sort"

	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
	"shootdown/internal/oracle"
	"shootdown/internal/snap"
)

// Rewinder is the restore-to-prefix shrink harness. Classic ddmin replays
// every candidate from t=0 to the end of the run; the Rewinder exploits
// the mask-never-perturbs-RNG invariant: a candidate's world is
// byte-identical to the base failing run's up to the divergence step (the
// first masked event's effect), so the shared prefix needs no observation
// — only verification — and the suffix needs to run only far enough past
// the base failure point to reproduce it, with an oracle hook stopping
// the engine at the first violation instead of churning to completion.
// That turns a shrink campaign from O(n·run) into O(n·suffix) of *live*
// simulation, with each reused prefix pinned by a snapshot ladder.
//
// The ladder compares the semantic layers (machine, pmap, shootdown,
// sched, oracle) and excludes the engine and faults layers: masking a
// fail/revive plan event legitimately changes the lifecycle driver's next
// wake time and the injected-event log before the divergence boundary,
// while leaving every simulated artifact untouched. A semantic mismatch
// means the prefix-identity invariant broke, and the Rewinder falls back
// to a full unbounded replay for that candidate — the optimization is
// guarded, never assumed.
type Rewinder struct {
	cell        Cell // the base failing cell (Fault.Mask is the base mask)
	baseVerdict string
	baseEvents  []fault.Event
	baseStep    uint64 // engine step at which the base run ended

	ladder map[uint64]*snap.Snapshot // boundary step -> verified prefix state
	meta   shrink.Meta
	wall   func() int64 // optional wall clock in ms (injected by main)
}

// NewRewinder builds a shrink harness over one failing run: the cell that
// produced it, the verdict to reproduce, the fired fault schedule, and
// the engine step count at which the run ended. The cell's flight
// recorder is stripped — re-executions must not dump black boxes.
func NewRewinder(cell Cell, verdict string, events []fault.Event, endStep uint64) *Rewinder {
	cell = cell.withDefaults()
	cell.Flight = nil
	return &Rewinder{
		cell:        cell,
		baseVerdict: verdict,
		baseEvents:  events,
		baseStep:    endStep,
		ladder:      map[uint64]*snap.Snapshot{},
	}
}

// SetWallClock injects a millisecond wall clock for campaign accounting.
// The experiments layer is simulated code (no real time allowed); the CLI
// wires this from package main.
func (r *Rewinder) SetWallClock(fn func() int64) { r.wall = fn }

// Meta returns the campaign accounting accumulated so far.
func (r *Rewinder) Meta() shrink.Meta { return r.meta }

// maxShrinkRuns bounds the candidate re-executions of one shrink
// campaign.
const maxShrinkRuns = 48

// Minimize runs restore-to-prefix ddmin over the base failing schedule,
// at most maxShrinkRuns candidates, and returns the 1-minimal subset with
// campaign accounting attached.
func (r *Rewinder) Minimize() shrink.Result {
	var startMS int64
	if r.wall != nil {
		startMS = r.wall()
	}
	res := shrink.MinimizeFromPrefix(r.baseEvents, r.test, maxShrinkRuns)
	m := r.meta
	m.Tests = res.Tests
	if r.wall != nil {
		m.WallMS = r.wall() - startMS
	}
	res.Meta = &m
	return res
}

// suffixBound is how far past the base failure step a candidate may run
// before the Rewinder declares the failure not reproduced: masking events
// shifts schedules, so the bound is generous, but it is what turns
// would-be full runs (or 30-virtual-second timeouts) into short suffixes.
func (r *Rewinder) suffixBound() uint64 { return r.baseStep + r.baseStep/2 + 5_000 }

// test reports whether the candidate keep set still reproduces the base
// verdict, running only the divergent suffix live.
func (r *Rewinder) test(keep []fault.EventID, divergeStep uint64) bool {
	all := make([]fault.EventID, len(r.baseEvents))
	for i, e := range r.baseEvents {
		all[i] = e.ID
	}
	mask := append(append([]fault.EventID(nil), r.cell.Fault.Mask...), shrink.MaskFor(all, keep)...)
	boundary := divergeStep
	if boundary > r.baseStep {
		boundary = r.baseStep
	}
	return r.runCandidate(mask, boundary) == r.baseVerdict
}

// runCandidate executes one masked world: replay to the divergence
// boundary, verify the prefix against the ladder, then run the suffix
// bounded with early exit on the first oracle violation.
func (r *Rewinder) runCandidate(mask []fault.EventID, boundary uint64) string {
	cfg := r.cell
	cfg.Fault.Mask = mask
	k, err := cfg.Start()
	if err != nil {
		return kernel.VerdictError
	}
	armStopOnViolation(k)
	// A run that dies inside the prefix (deadlock, time bound, panic), or
	// ends before the boundary (completed, or stopped on a violation), is
	// settled and judged as is.
	if paused, err := k.RunTo(boundary); !paused {
		return kernel.Verdict(err)
	}
	r.checkLadder(k, boundary)
	paused, err := k.RunTo(r.suffixBound())
	r.meta.SuffixSteps += k.Eng.StepCount() - boundary
	if paused {
		// Suffix budget exhausted without reproducing the base failure:
		// the candidate does not fail. The paused world is abandoned, as
		// the engine already abandons deadlocked worlds.
		return kernel.VerdictOK
	}
	return kernel.Verdict(err)
}

// checkLadder verifies the candidate's replayed prefix against the
// snapshot ladder, seeding the rung on first visit to a boundary.
func (r *Rewinder) checkLadder(k *kernel.Kernel, boundary uint64) {
	s, err := k.Snapshot()
	if err != nil {
		r.meta.FullReplays++
		return
	}
	rung := r.ladder[boundary]
	if rung == nil {
		r.ladder[boundary] = s
		r.meta.FullReplays++
		return
	}
	if ok, _ := semanticEqual(rung, s); ok {
		r.meta.RestoreHits++
		r.meta.PrefixStepsReused += boundary
		return
	}
	// Prefix-identity invariant broke for this candidate; count it as a
	// full replay. The run proceeds anyway — the suffix verdict is still
	// deterministic — but no prefix reuse is claimed.
	r.meta.FullReplays++
}

// volatileLayers are snapshot layers that legitimately differ between a
// masked candidate and the base run before the divergence boundary (see
// the Rewinder doc).
var volatileLayers = map[string]bool{"engine": true, "faults": true}

// semanticEqual compares two snapshots on their semantic layers only.
func semanticEqual(a, b *snap.Snapshot) (bool, string) {
	if a.Step != b.Step {
		return false, "step differs"
	}
	for _, la := range a.Layers {
		if volatileLayers[la.Name] {
			continue
		}
		lb := b.Layer(la.Name)
		if lb == nil {
			return false, "layer " + la.Name + " missing"
		}
		if string(la.Data) != string(lb) {
			return false, "layer " + la.Name + " differs"
		}
	}
	return true, ""
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
		// Stopping the engine is this hook's entire purpose: the explorer
		// wants the run to end at the violation, not observe it silently.
		//lint:allow hookpurity deliberately impure: stop-on-violation exists to halt the engine early
		k.Eng.Stop()
	}
}

// BuildRepro packages a minimized failure for replay: the cell's fault
// config with the mask set so exactly the kept events fire, the forced
// ties that steer the schedule (explorer finds), and the shrink-campaign
// accounting.
func BuildRepro(c Cell, verdict string, events []fault.Event, keep []fault.EventID, meta *shrink.Meta) shrink.Repro {
	c = c.withDefaults()
	all := make([]fault.EventID, len(events))
	for i, e := range events {
		all[i] = e.ID
	}
	cfg := c.Fault
	cfg.Mask = append(append([]fault.EventID(nil), cfg.Mask...), shrink.MaskFor(all, keep)...)
	sort.Slice(cfg.Mask, func(i, j int) bool {
		if cfg.Mask[i].Kind != cfg.Mask[j].Kind {
			return cfg.Mask[i].Kind < cfg.Mask[j].Kind
		}
		return cfg.Mask[i].Seq < cfg.Mask[j].Seq
	})
	return shrink.Repro{
		Version:  shrink.ReproVersion,
		Workload: c.Workload,
		Seed:     c.Seed,
		NCPUs:    c.NCPUs,
		Devices:  c.Devices,
		Faults:   cfg,
		Keep:     keep,
		Verdict:  verdict,
		Bug:      c.Bug,
		Ties:     c.Ties,
		Shrink:   meta,
	}
}
