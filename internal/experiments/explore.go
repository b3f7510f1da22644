package experiments

import (
	"fmt"

	"shootdown/internal/explore"
	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
)

// exploreSpec is the fault scenario the schedule explorer runs under: the
// hot-plug schedule keeps shootdowns, fail-stops, and revives in flight
// simultaneously, which is what opens the racy tie windows worth forking.
const exploreSpec = "failstop=0.9,failby=8ms,revive=1,reviveafter=4ms"

// ExploreResult wraps the explorer's output for the experiment envelope.
type ExploreResult struct {
	explore.Result
}

// ExploreCampaign runs the DPOR-lite schedule explorer over the chaos
// fixture: one instrumented base run to log racy tie decisions, then one
// forked replay per untaken branch within a.ExploreBudget (0 = the
// explorer's default), the first violation shrunk into a reproducer by
// bounded-replay delta debugging. a.PlantBug plants the
// stale-TLB-after-revive bug, so the explorer has an
// interleaving-dependent violation to find.
func ExploreCampaign(a *Args) (ExploreResult, error) {
	fc, err := fault.ParseSpec(exploreSpec)
	if err != nil {
		return ExploreResult{}, fmt.Errorf("experiments: explore: %w", err)
	}
	// Same per-scenario seeding as the chaos campaign's hotplug row, so a
	// violation found here replays under `chaos` tooling unchanged.
	fc.Seed = a.Seed + 257
	cell := campaignCell(a.Seed, churnCPUs, fc, a.plant(shrink.BugSkipReviveFlush))
	r, err := explore.Explore(cell, explore.Options{Budget: a.ExploreBudget, WallClock: a.WallClock})
	return ExploreResult{r}, err
}

// Doc is the exploration campaign.
func (r ExploreResult) Doc() Doc {
	var d Doc
	d.line("Schedule exploration: DPOR-lite over racy shootdown ties (%d-CPU churn, seed %d, budget %d)",
		r.NCPUs, r.Seed, r.Budget)
	d.line("base run: verdict %s, %d steps, %d chaos ties (%d broken inside an open shootdown race window)\n",
		r.BaseVerdict, r.BaseSteps, r.TotalTies, r.RacyTies)
	if len(r.Forks) > 0 {
		d.row("fork\ttie\tpick\tverdict\tsteps\tdetail")
		for i, f := range r.Forks {
			detail := f.Detail
			if detail == "" {
				detail = "-"
			}
			d.row("%d\t#%d\t%d\t%s\t%d\t%s", i, f.Seq, f.Pick, f.Verdict, f.EndStep, detail)
		}
	}
	d.line("\n%d violating schedule(s), %d distinct", r.Violations, r.DistinctViolations)
	if r.Repro != nil {
		d.line("first violation shrunk: %d -> %d events (verdict %s)",
			r.ScheduleLen, len(r.Repro.Keep), r.Repro.Verdict)
		if m := r.Repro.Shrink; m != nil {
			d.line("shrink campaign: %d tests", m.Tests)
		}
		ties := ""
		if len(r.Repro.Ties) > 0 {
			ties = fmt.Sprintf(" with %d forced ties", len(r.Repro.Ties))
		}
		d.line("minimal schedule: [%s]%s", eventIDs(r.Repro.Keep), ties)
	} else if r.Violations == 0 {
		d.line("no interleaving explored within budget produced a violation")
	}
	return d
}
