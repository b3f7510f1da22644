package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

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

// Render prints the exploration campaign.
func (r ExploreResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Schedule exploration: DPOR-lite over racy shootdown ties (%d-CPU churn, seed %d, budget %d)\n",
		r.NCPUs, r.Seed, r.Budget)
	fmt.Fprintf(&b, "base run: verdict %s, %d steps, %d chaos ties (%d broken inside an open shootdown race window)\n\n",
		r.BaseVerdict, r.BaseSteps, r.TotalTies, r.RacyTies)
	if len(r.Forks) > 0 {
		w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
		fmt.Fprintf(w, "fork\ttie\tpick\tverdict\tsteps\tdetail\n")
		for i, f := range r.Forks {
			detail := f.Detail
			if detail == "" {
				detail = "-"
			}
			fmt.Fprintf(w, "%d\t#%d\t%d\t%s\t%d\t%s\n", i, f.Seq, f.Pick, f.Verdict, f.EndStep, detail)
		}
		w.Flush()
	}
	fmt.Fprintf(&b, "\n%d violating schedule(s), %d distinct\n", r.Violations, r.DistinctViolations)
	if r.Repro != nil {
		fmt.Fprintf(&b, "first violation shrunk: %d -> %d events (verdict %s)\n",
			r.ScheduleLen, len(r.Repro.Keep), r.Repro.Verdict)
		if m := r.Repro.Shrink; m != nil {
			fmt.Fprintf(&b, "shrink campaign: %d tests\n", m.Tests)
		}
		ids := make([]string, len(r.Repro.Keep))
		for i, id := range r.Repro.Keep {
			ids[i] = id.String()
		}
		fmt.Fprintf(&b, "minimal schedule: [%s]", strings.Join(ids, " "))
		if len(r.Repro.Ties) > 0 {
			fmt.Fprintf(&b, " with %d forced ties", len(r.Repro.Ties))
		}
		fmt.Fprintln(&b)
	} else if r.Violations == 0 {
		fmt.Fprintf(&b, "no interleaving explored within budget produced a violation\n")
	}
	return b.String()
}
