package explore

import (
	"fmt"

	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
	"shootdown/internal/sim"
)

// Tie is one recorded chaos tie decision from the base run, tagged with
// whether the shootdown race window was open when it was broken.
type Tie struct {
	sim.TieDecision
	Racy bool `json:"racy,omitempty"`
}

// Fork is one explored alternative schedule: the base run's tie picks up
// to (not including) ordinal Seq, then Pick instead of the base choice,
// then free chaos.
type Fork struct {
	Seq     uint64 `json:"seq"`  // the flipped tie's ordinal
	Pick    int    `json:"pick"` // the branch taken instead
	Ties    []int  `json:"ties"` // full forced prefix handed to the engine
	Verdict string `json:"verdict"`
	Detail  string `json:"detail,omitempty"`
	// EndStep is the engine step the fork's run ended at; if this fork's
	// violation is the one shrunk, Shrink bounds its candidates by it.
	EndStep uint64 `json:"end_step"`
}

// Result is one exploration campaign's outcome.
type Result struct {
	Seed   int64 `json:"seed"`
	NCPUs  int   `json:"ncpus"`
	Budget int   `json:"budget"`

	BaseVerdict string `json:"base_verdict"`
	BaseDetail  string `json:"base_detail,omitempty"`
	BaseSteps   uint64 `json:"base_steps"`

	TotalTies int    `json:"total_ties"`
	RacyTies  int    `json:"racy_ties"`
	Forks     []Fork `json:"forks,omitempty"`

	// Violations counts failing schedules found (base run included);
	// DistinctViolations dedups by failure detail.
	Violations         int `json:"violations"`
	DistinctViolations int `json:"distinct_violations"`

	// Repro is the first violation found, shrunk by Shrink; ScheduleLen
	// is its pre-shrink size.
	Repro       *shrink.Repro `json:"repro,omitempty"`
	ScheduleLen int           `json:"schedule_len,omitempty"`
}

// Options tunes an exploration campaign.
type Options struct {
	// Budget bounds the number of forked schedules (default 24). The same
	// budget and seed always explore the byte-identical set of schedules.
	Budget int
	// WallClock, when set, is a millisecond clock injected by package
	// main for shrink-campaign accounting.
	WallClock func() int64
}

func (o Options) withDefaults() Options {
	if o.Budget == 0 {
		o.Budget = 24
	}
	return o
}

// failing is one violating schedule queued for the shrink pipeline.
type failing struct {
	cell    Cell
	verdict string
	detail  string
	events  []fault.Event
	endStep uint64
}

// Explore is the DPOR-lite campaign: run the base schedule once,
// recording every chaos tie and whether the shootdown race window was
// open; then, racy tie by racy tie and branch by branch in deterministic
// order, fork the schedule by forcing the base prefix plus the flipped
// pick and replaying. Every oracle violation found is counted, and the
// first is shrunk into a reproducer.
//
// Exploration is exhaustive-within-budget, not heuristic: for B budget
// the forks are the first B (tie, alternative-pick) pairs in (ordinal,
// pick) order, so two campaigns with equal cell and budget explore the
// byte-identical set of schedules.
func Explore(cell Cell, opt Options) (Result, error) {
	cell = cell.withDefaults()
	opt = opt.withDefaults()
	res := Result{Seed: cell.Seed, NCPUs: cell.NCPUs, Budget: opt.Budget}
	if cell.Seed == 0 {
		return res, fmt.Errorf("explore: chaos seed required (seed 0 schedules FIFO and never ties)")
	}

	// Base run, instrumented: the tie log is the set of fork points.
	k, err := cell.Start()
	if err != nil {
		return res, fmt.Errorf("explore: base run: %w", err)
	}
	k.M.Faults().KeepEvents()
	var ties []Tie
	k.Eng.SetTieRecorder(func(d sim.TieDecision) {
		ties = append(ties, Tie{TieDecision: d, Racy: k.Shoot != nil && k.Shoot.RaceWindowOpen()})
	})
	runErr := k.Run()
	res.BaseVerdict = kernel.Verdict(runErr)
	if runErr != nil {
		res.BaseDetail = runErr.Error()
	}
	res.BaseSteps = k.Eng.StepCount()
	res.TotalTies = len(ties)
	basePicks := make([]int, len(ties))
	for i, t := range ties {
		basePicks[i] = t.Pick
		if t.Racy {
			res.RacyTies++
		}
	}

	var fails []failing
	seen := map[string]bool{}
	note := func(f failing) {
		res.Violations++
		if !seen[firstLine(f.detail)] {
			seen[firstLine(f.detail)] = true
			res.DistinctViolations++
		}
		fails = append(fails, f)
	}
	if res.BaseVerdict != kernel.VerdictOK {
		note(failing{cell: cell, verdict: res.BaseVerdict, detail: res.BaseDetail,
			events: k.M.Faults().Events(), endStep: res.BaseSteps})
	}
	k.Close()

	// Fork each racy tie down every untaken branch, budget-capped.
	for i, t := range ties {
		if len(res.Forks) >= opt.Budget {
			break
		}
		if !t.Racy || len(t.Tied) < 2 {
			continue
		}
		for p := 0; p < len(t.Tied); p++ {
			if p == t.Pick {
				continue
			}
			if len(res.Forks) >= opt.Budget {
				break
			}
			forced := append(append([]int(nil), basePicks[:i]...), p)
			fc := cell
			fc.Ties = forced
			fc.Flight = nil
			var endStep uint64
			// Only the first failure is shrunk, so only a fork run while
			// none has been found keeps its fault schedule.
			verdict, detail, events := fc.Run(len(fails) == 0, func(kk *kernel.Kernel) {
				endStep = kk.Eng.StepCount()
			})
			fork := Fork{Seq: t.Seq, Pick: p, Ties: forced, Verdict: verdict,
				Detail: firstLine(detail), EndStep: endStep}
			res.Forks = append(res.Forks, fork)
			if verdict != kernel.VerdictOK {
				note(failing{cell: fc, verdict: verdict, detail: detail, events: events, endStep: endStep})
			}
		}
	}

	// Shrink the first violation into a reproducer.
	if len(fails) > 0 {
		f := fails[0]
		res.ScheduleLen = len(f.events)
		repro := Shrink(f.cell, f.verdict, f.events, f.endStep, opt.WallClock)
		res.Repro = &repro
	}
	return res, nil
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
