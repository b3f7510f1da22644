package experiments

import (
	"fmt"
	"strings"

	"shootdown/internal/explore"
	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
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

// campaign is one chaos campaign's fixture: its scenarios and the cell
// each scenario's fault config runs in (which names the planted bug).
type campaign struct {
	kind      string // names the campaign in errors
	scenarios []scenario
	cell      func(fault.Config) explore.Cell
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
		out.Scenario, out.Spec, out.Bug = sc.Name, sc.Spec, cell.Bug
		var endStep uint64
		cell.Flight = in.Flight
		verdict, detail, events := cell.Run(true, func(k *kernel.Kernel) {
			if in.Observe != nil {
				in.Observe(k)
			}
			endStep = k.Eng.StepCount()
			p.harvest(k)
		})
		out.Verdict, out.Err = verdict, detail
		if verdict != kernel.VerdictOK {
			s := p.shrinkResult()
			s.ScheduleLen = len(events)
			repro := explore.Shrink(cell, verdict, events, endStep, a.WallClock)
			s.Shrunk, s.ShrinkTests, s.Repro = repro.Keep, repro.Shrink.Tests, &repro
		}
		rows = append(rows, row)
	}
	return rows, nil
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
