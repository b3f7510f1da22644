package experiments

import (
	"fmt"
	"sort"
	"strings"

	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
	"shootdown/internal/oracle"
	"shootdown/internal/workload"
)

// scenario is one named fault specification of a campaign.
type scenario struct {
	Name string
	Spec string
}

// scenarioOutcome is the leading columns of a chaos-campaign row: which
// scenario ran, with which planted bug, and its verdict.
type scenarioOutcome struct {
	Scenario string
	Spec     string
	Bug      string `json:",omitempty"`

	Verdict string
	Err     string `json:",omitempty"`
}

func (o *scenarioOutcome) outcome() *scenarioOutcome { return o }

// shrinkOutcome is the trailing columns of a chaos-campaign row: the
// shrink results, when the run failed.
type shrinkOutcome struct {
	ScheduleLen int             `json:",omitempty"` // events in the failing schedule
	Shrunk      []fault.EventID `json:",omitempty"` // 1-minimal subset
	ShrinkTests int             `json:",omitempty"`
	Repro       *shrink.Repro   `json:",omitempty"`
}

func (s *shrinkOutcome) shrinkResult() *shrinkOutcome { return s }

// column renders the shrink result for a campaign table.
func (s *shrinkOutcome) column() string {
	if s.ScheduleLen == 0 {
		return "-"
	}
	return fmt.Sprintf("%d -> %d (%d runs)", s.ScheduleLen, len(s.Shrunk), s.ShrinkTests)
}

// campaignRow is a chaos-campaign row: the shared outcome columns (from
// the embedded scenarioOutcome and shrinkOutcome) around the campaign's
// own counters, which harvest reads from the settled world.
type campaignRow interface {
	outcome() *scenarioOutcome
	shrinkResult() *shrinkOutcome
	harvest(k *kernel.Kernel)
}

// rowPtr lets the shared campaign code address a row of type R.
type rowPtr[R any] interface {
	*R
	campaignRow
}

// campaignStarts maps a campaign fixture's workload name, as a reproducer
// records it, to the constructor that assembles its world unrun.
var campaignStarts = map[string]func(workload.AppConfig) (*kernel.Kernel, error){
	"churn": workload.StartChurn,
	"dma":   workload.StartDMA,
}

// campaign is one chaos campaign's fixture: its scenarios, the workload
// they run, and the world each scenario's fault config runs in (which
// plants the campaign's bug).
type campaign struct {
	kind      string // names the campaign in errors
	scenarios []scenario
	workload  string // a campaignStarts key
	cell      func(fault.Config) workload.AppConfig
}

// runCampaign is the scenario loop ChaosCampaign and DeviceChaosCampaign
// share. Each scenario runs in a cell armed with a's flight recorder under
// its own fault seed, is observed once and harvested into its row, and, if
// it failed, is delta-debugged down to a 1-minimal fault schedule and
// packaged as a replayable reproducer.
func runCampaign[R any, P rowPtr[R]](a *Args, c campaign) ([]R, error) {
	in := a.In
	var rows []R
	for i, sc := range c.scenarios {
		fc, err := fault.ParseSpec(sc.Spec)
		if err != nil {
			return rows, fmt.Errorf("experiments: %s scenario %s: %w", c.kind, sc.Name, err)
		}
		fc.Seed = a.Seed + int64(i)*257
		var row R
		p := P(&row)
		out := p.outcome()
		cell := c.cell(fc)
		out.Scenario, out.Spec, out.Bug = sc.Name, sc.Spec, plantedBug(cell)
		var endStep uint64
		cell.Flight = in.Flight
		cell.Observe = func(k *kernel.Kernel) {
			if in.Observe != nil {
				in.Observe(k)
			}
			endStep = k.Eng.StepCount()
			p.harvest(k)
		}
		verdict, detail, events := runCell(c.workload, cell)
		out.Verdict, out.Err = verdict, detail
		if verdict != kernel.VerdictOK {
			s := p.shrinkResult()
			s.ScheduleLen = len(events)
			repro := shrinkCell(c.workload, cell, verdict, events, endStep, a.WallClock)
			s.Shrunk, s.ShrinkTests, s.Repro = repro.Keep, repro.Shrink.Tests, &repro
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// flightSnapshotStep is the event step at which a flight-armed run pauses
// for a whole-simulation snapshot, early enough to precede the failures
// the chaos campaigns plant. The snapshot rides in the black box's
// "snapshots" section, so every post-mortem artifact embeds a restore
// point.
const flightSnapshotStep = 2000

// runCell runs the campaign world cell of workload wl to completion and
// returns its verdict, the run's error text and its fired fault schedule
// (the full event log a shrink starts from). cell.Observe, when set, sees
// the settled world exactly once, whether or not the run failed, before
// the verdict is returned; the world is closed after it. A flight-armed
// cell pauses at flightSnapshotStep to take a snapshot — a pure read, so
// the resumed run is byte-identical to an uninterrupted one — and a black
// box it trips carries a restore point.
func runCell(wl string, cell workload.AppConfig) (verdict, detail string, events []fault.Event) {
	k, err := campaignStarts[wl](cell)
	if err != nil {
		return kernel.VerdictError, err.Error(), nil
	}
	defer k.Close()
	k.M.Faults().KeepEvents()
	var runErr error
	if cell.Flight == nil {
		runErr = k.Run()
	} else if paused, err := k.RunTo(flightSnapshotStep); !paused {
		runErr = err
	} else {
		_, snapErr := k.Snapshot()
		runErr = k.Run()
		if snapErr != nil {
			runErr = snapErr
		}
	}
	events = k.M.Faults().Events()
	if cell.Observe != nil {
		cell.Observe(k)
	}
	if runErr != nil {
		detail = runErr.Error()
	}
	return kernel.Verdict(runErr), detail, events
}

// maxShrinkRuns bounds the candidate re-executions of one shrink
// campaign.
const maxShrinkRuns = 48

// shrinkCell delta-debugs one failing campaign run's fired fault schedule
// down to a 1-minimal subset, at most maxShrinkRuns candidates, and
// packages it as a replayable reproducer. The run is the world cell of
// workload wl; verdict is what it produced, events its fired schedule and
// endStep the engine step at which it ended. Each candidate is the world
// rebuilt with every fired event outside its keep set masked and judged by
// candidate, bounded at endStep + endStep/2 + 5,000 steps: masking shifts
// schedules, so the bound is generous, but it keeps a candidate that no
// longer fails from running to the end of its workload (or its
// 30-virtual-second timeout). wall, when set, is a millisecond wall clock
// for the campaign's accounting; this package is simulated code and may
// not read real time itself, so package main supplies it.
func shrinkCell(wl string, cell workload.AppConfig, verdict string, events []fault.Event, endStep uint64, wall func() int64) shrink.Repro {
	// Re-executions must neither dump black boxes nor reach the observer.
	cell.Flight, cell.Observe = nil, nil
	var startMS int64
	if wall != nil {
		startMS = wall()
	}
	all := make([]fault.EventID, len(events))
	for i, e := range events {
		all[i] = e.ID
	}
	// masked is cell's fault config with every fired event outside keep
	// added to its mask.
	masked := func(keep []fault.EventID) fault.Config {
		fc := *cell.Faults
		fc.Mask = append(append([]fault.EventID(nil), fc.Mask...), shrink.MaskFor(all, keep)...)
		return fc
	}
	bound := endStep + endStep/2 + 5_000
	res := shrink.Minimize(all, func(keep []fault.EventID) bool {
		c, fc := cell, masked(keep)
		c.Faults = &fc
		v, _ := candidate(wl, c, bound)
		return v == verdict
	}, maxShrinkRuns)
	meta := &shrink.Meta{Tests: res.Tests}
	if wall != nil {
		meta.WallMS = wall() - startMS
	}

	fc := masked(res.Keep)
	sort.Slice(fc.Mask, func(i, j int) bool {
		if fc.Mask[i].Kind != fc.Mask[j].Kind {
			return fc.Mask[i].Kind < fc.Mask[j].Kind
		}
		return fc.Mask[i].Seq < fc.Mask[j].Seq
	})
	return shrink.Repro{
		Version:  shrink.ReproVersion,
		Workload: wl,
		Seed:     cell.Seed,
		NCPUs:    cell.NCPUs,
		Devices:  cell.NumDevices,
		Faults:   fc,
		Keep:     res.Keep,
		Verdict:  verdict,
		Bug:      plantedBug(cell),
		Shrink:   meta,
	}
}

// candidate runs the campaign world cell of workload wl as the shrinker
// judges it, stopping at its first oracle violation, and returns the
// verdict and the run's error text. A world still paused at step bound
// has not reproduced the failure: it is ok. Either way the world is
// closed. A reproducer replays as a candidate with no bound.
func candidate(wl string, cell workload.AppConfig, bound uint64) (verdict, detail string) {
	k, err := campaignStarts[wl](cell)
	if err != nil {
		return kernel.VerdictError, err.Error()
	}
	defer k.Close()
	armStopOnViolation(k)
	paused, err := k.RunTo(bound)
	if paused {
		return kernel.VerdictOK, ""
	}
	if err != nil {
		detail = err.Error()
	}
	return kernel.Verdict(err), detail
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

// failures counts a campaign's non-ok rows.
func failures[R any, P rowPtr[R]](rows []R) int {
	n := 0
	for i := range rows {
		if P(&rows[i]).outcome().Verdict != kernel.VerdictOK {
			n++
		}
	}
	return n
}

// addFailures adds a campaign's FAIL section to d: each failed scenario's
// first error line and its minimal schedule.
func addFailures[R any, P rowPtr[R]](d *Doc, rows []R) {
	for i := range rows {
		p := P(&rows[i])
		out := p.outcome()
		if out.Verdict == kernel.VerdictOK {
			continue
		}
		d.line("\nFAIL %s (%s): %s", out.Scenario, out.Verdict, firstLine(out.Err))
		if shrunk := p.shrinkResult().Shrunk; len(shrunk) > 0 {
			d.line("  minimal schedule: %s", eventIDs(shrunk))
		}
	}
}

// eventIDs lists ids separated by spaces.
func eventIDs(ids []fault.EventID) string {
	s := make([]string, len(ids))
	for i, id := range ids {
		s[i] = id.String()
	}
	return strings.Join(s, " ")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
