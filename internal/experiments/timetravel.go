package experiments

import (
	"fmt"
	"strings"

	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/snap"
)

// TimeTravelResult is one restore-and-verify round trip: the run paused at
// the event boundary nearest the requested virtual time, snapshotted, then
// rebuilt from scratch and replayed to the same boundary. Matching digests
// prove the replayed world is byte-identical to the original — the
// "restore" in time-travel debugging — and matching final states prove the
// continuation is too.
type TimeTravelResult struct {
	Seed   int64    `json:"seed"`
	NCPUs  int      `json:"ncpus"`
	AtNS   int64    `json:"at_ns"`  // requested virtual time
	Step   uint64   `json:"step"`   // event boundary the time mapped to
	NowNS  int64    `json:"now_ns"` // virtual time at that boundary
	Layers []string `json:"layers"` // layer names in the snapshot

	Digest        string `json:"digest"`         // original world at Step
	RestoreDigest string `json:"restore_digest"` // replayed world at Step
	Match         bool   `json:"match"`

	FinalVerdict    string `json:"final_verdict"`    // original run to completion
	RestoredVerdict string `json:"restored_verdict"` // restored run to completion
	FinalDigest     string `json:"final_digest"`
	RestoredFinal   string `json:"restored_final_digest"`
	FinalMatch      bool   `json:"final_match"`
}

// TimeTravel demonstrates snapshot/restore end to end on the hot-plug
// chaos fixture: map the requested virtual time a.At to an event boundary,
// snapshot the original world there, rebuild a fresh world and replay it
// to the same boundary, verify byte identity, then run both worlds to
// completion and verify their final states match too. A digest mismatch is
// returned as an error — restore is verified, never assumed.
func TimeTravel(a *Args) (TimeTravelResult, error) {
	seed, at := a.Seed, a.At
	res := TimeTravelResult{Seed: seed, NCPUs: churnCPUs, AtNS: int64(at)}
	fc, err := fault.ParseSpec(chaosScenarios[1].Spec) // hotplug: the busy fixture
	if err != nil {
		return res, err
	}
	fc.Seed = seed + 257
	cell := campaignCell(seed, churnCPUs, fc, "")

	// Scout: drive a throwaway world by virtual time to learn which event
	// step the requested instant lands on. (The engine's cursor is steps,
	// not nanoseconds; this pass is the time -> step map.)
	scout, err := cell.Start()
	if err != nil {
		return res, err
	}
	scout.Start()
	if err := scout.Eng.RunUntil(at); err != nil {
		return res, scout.Finish(err)
	}
	res.Step = scout.Eng.StepCount()
	if res.Step == 0 {
		return res, fmt.Errorf("experiments: no events before %dns; pick a later -at", int64(at))
	}
	// The scout world is abandoned paused, like any deadlocked world.

	// replay builds a fresh world and replays it to the boundary.
	replay := func(what string) (*kernel.Kernel, *snap.Snapshot, error) {
		k, err := cell.Start()
		if err != nil {
			return nil, nil, err
		}
		if paused, err := k.RunTo(res.Step); !paused {
			if err == nil {
				err = fmt.Errorf("experiments: %s run ended before step %d", what, res.Step)
			}
			return nil, nil, err
		}
		s, err := k.Snapshot()
		return k, s, err
	}

	// Original: replay to the boundary, snapshot, continue to completion.
	k1, s1, err := replay("original")
	if err != nil {
		return res, err
	}
	res.NowNS = s1.NowNS
	for _, l := range s1.Layers {
		res.Layers = append(res.Layers, l.Name)
	}
	res.Digest = s1.Digest
	res.FinalVerdict = kernel.Verdict(k1.Run())
	f1, err := k1.Snapshot()
	if err != nil {
		return res, err
	}
	res.FinalDigest = f1.Digest

	// Restore: a fresh world, replayed to the same boundary, must be
	// byte-identical — then its continuation must be too.
	k2, s2, err := replay("restored")
	if err != nil {
		return res, err
	}
	res.RestoreDigest = s2.Digest
	ok, diff := snap.Equal(s1, s2)
	res.Match = ok
	if !ok {
		return res, fmt.Errorf("experiments: restore diverged at step %d: %s", res.Step, firstLine(diff))
	}
	res.RestoredVerdict = kernel.Verdict(k2.Run())
	f2, err := k2.Snapshot()
	if err != nil {
		return res, err
	}
	res.RestoredFinal = f2.Digest
	fok, fdiff := snap.Equal(f1, f2)
	res.FinalMatch = fok && res.FinalVerdict == res.RestoredVerdict
	if !res.FinalMatch {
		return res, fmt.Errorf("experiments: restored continuation diverged (%s vs %s): %s",
			res.FinalVerdict, res.RestoredVerdict, firstLine(fdiff))
	}
	return res, nil
}

// Doc is the round trip.
func (r TimeTravelResult) Doc() Doc {
	var d Doc
	d.line("Time travel: %d-CPU hot-plug churn, seed %d", r.NCPUs, r.Seed)
	d.line("requested t=%dns -> event boundary step %d (t=%dns)", r.AtNS, r.Step, r.NowNS)
	d.line("snapshot layers: %s", strings.Join(r.Layers, ", "))
	d.line("original world digest:  %s", r.Digest)
	d.line("restored world digest:  %s (match=%v)", r.RestoreDigest, r.Match)
	d.line("continued to completion: original %s (%s), restored %s (%s), match=%v",
		r.FinalVerdict, r.FinalDigest, r.RestoredVerdict, r.RestoredFinal, r.FinalMatch)
	if r.Match && r.FinalMatch {
		d.line("restore verified: replaying to step %d reproduces the world byte for byte", r.Step)
	}
	return d
}
