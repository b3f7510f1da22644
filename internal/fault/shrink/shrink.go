// Package shrink minimizes failing fault schedules by delta debugging.
//
// A chaos campaign that fails (oracle violation, deadlock, divergence)
// fired some set of fault events, each with a stable ID (fault.EventID).
// Because masking an event suppresses its effect without perturbing any
// RNG stream, re-running the same seed with a mask replays exactly the
// sub-schedule left unmasked. Minimize exploits that: it is Zeller's
// ddmin over the set of fired events, converging to a 1-minimal subset —
// removing any single remaining event makes the failure disappear.
//
// The result is packaged as a Repro: a small JSON document naming the
// workload, seed, CPU count, fault config, and the events to keep, which
// `shootdownsim -repro file.json` replays deterministically. Minimized
// reproducers are committed under testdata/corpus/ and replayed by the
// tier-2 suite so fixed bugs stay fixed.
package shrink

import (
	"encoding/json"
	"fmt"
	"os"

	"shootdown/internal/fault"
)

// Test reports whether the failure still reproduces when exactly the
// events in keep fire (every other event of the full schedule masked).
// It must be deterministic: same keep set, same verdict.
type Test func(keep []fault.EventID) bool

// Result summarizes a minimization.
type Result struct {
	Keep  []fault.EventID // 1-minimal failing subset, in original order
	Tests int             // how many test runs the search used
}

// Meta is the shrink-campaign accounting embedded in reproducer JSON: how
// many candidate runs the search used and, when the harness injects a
// wall clock, how long they took (the experiments layer is simulated code
// and may not read real time itself). Every candidate is simulated from
// step 0.
type Meta struct {
	Tests  int   `json:"tests"`
	WallMS int64 `json:"wall_ms,omitempty"`
}

// Minimize runs ddmin over the full failing schedule. The caller asserts
// that test(all) is true; Minimize never re-checks it. maxTests bounds
// the number of test runs (0 means no bound); if the budget runs out the
// smallest failing set found so far is returned, which is still a valid
// (just maybe not minimal) reproducer.
func Minimize(all []fault.EventID, test Test, maxTests int) Result {
	cur := append([]fault.EventID(nil), all...)
	res := Result{}
	run := func(keep []fault.EventID) bool {
		res.Tests++
		return test(keep)
	}
	budgetLeft := func() bool { return maxTests == 0 || res.Tests < maxTests }

	n := 2
	for len(cur) >= 2 && budgetLeft() {
		chunks := split(cur, n)
		reduced := false
		// Try each chunk alone: the failure may live entirely inside one.
		for _, c := range chunks {
			if !budgetLeft() {
				break
			}
			if run(c) {
				cur, n, reduced = c, 2, true
				break
			}
		}
		// Then each complement: the failure may survive dropping one chunk.
		if !reduced {
			for i := range chunks {
				if !budgetLeft() {
					break
				}
				comp := without(cur, chunks[i])
				if len(comp) > 0 && run(comp) {
					cur, reduced = comp, true
					if n > 2 {
						n--
					}
					break
				}
			}
		}
		if !reduced {
			if n >= len(cur) {
				break // 1-minimal: no single event can be dropped
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	res.Keep = cur
	return res
}

// split partitions events into n nearly-equal contiguous chunks.
func split(events []fault.EventID, n int) [][]fault.EventID {
	if n > len(events) {
		n = len(events)
	}
	chunks := make([][]fault.EventID, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(events)/n, (i+1)*len(events)/n
		chunks = append(chunks, events[lo:hi])
	}
	return chunks
}

// without returns events minus the members of drop, preserving order.
func without(events, drop []fault.EventID) []fault.EventID {
	dropped := make(map[fault.EventID]bool, len(drop))
	for _, id := range drop {
		dropped[id] = true
	}
	var out []fault.EventID
	for _, id := range events {
		if !dropped[id] {
			out = append(out, id)
		}
	}
	return out
}

// MaskFor inverts a keep set against the full schedule: the mask that
// lets exactly keep fire.
func MaskFor(all, keep []fault.EventID) []fault.EventID {
	return without(all, keep)
}

// ReproVersion is the current reproducer file format version.
const ReproVersion = 1

// The planted bugs a reproducer can name (Repro.Bug).
const (
	// BugSkipReviveFlush plants the stale-TLB-after-revive bug: a revived
	// CPU comes back online without flushing its TLB.
	BugSkipReviveFlush = "skip-revive-flush"
	// BugSkipDevInval plants the stale-device-TLB bug: devices acknowledge
	// invalidations without performing them.
	BugSkipDevInval = "skip-dev-inval"
)

// Repro is a replayable chaos reproducer: everything needed to rebuild
// the failing run, minimized.
type Repro struct {
	Version  int             `json:"version"`
	Workload string          `json:"workload"` // experiment/workload name
	Seed     int64           `json:"seed"`     // scheduler chaos seed
	NCPUs    int             `json:"ncpus"`
	Faults   fault.Config    `json:"faults"`         // fault config, Mask set to replay only Keep
	Keep     []fault.EventID `json:"keep"`           // the minimized schedule (informational; Mask is operative)
	Verdict  string          `json:"verdict"`        // what the failing run produced ("oracle", "deadlock", …)
	Bug      string          `json:"bug,omitempty"`  // planted bug, if any (BugSkipReviveFlush, BugSkipDevInval)
	Note     string          `json:"note,omitempty"` // free-form provenance
	// Devices is the device-TLB count for device-bearing workloads
	// ("dma"). Omitted — and zero — for the CPU-only reproducers, which
	// keeps the pre-device corpus files byte-identical.
	Devices int `json:"devices,omitempty"`
	// Shrink records how the minimization campaign went: how many
	// candidate runs it took.
	Shrink *Meta `json:"shrink,omitempty"`
}

// Validate rejects obviously unusable reproducers before a replay tries
// to build a machine from them.
func (r *Repro) Validate() error {
	if r.Version != ReproVersion {
		return fmt.Errorf("shrink: repro version %d, want %d", r.Version, ReproVersion)
	}
	if r.NCPUs < 1 {
		return fmt.Errorf("shrink: repro has %d cpus", r.NCPUs)
	}
	if r.Workload == "" {
		return fmt.Errorf("shrink: repro names no workload")
	}
	if r.Verdict == "" || r.Verdict == "ok" {
		return fmt.Errorf("shrink: repro verdict %q is not a failure", r.Verdict)
	}
	switch r.Bug {
	case "", BugSkipReviveFlush, BugSkipDevInval:
	default:
		return fmt.Errorf("shrink: repro names unknown bug %q", r.Bug)
	}
	return nil
}

// Save writes the reproducer as indented JSON (stable formatting, so
// corpus diffs stay reviewable).
func Save(path string, r Repro) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and validates a reproducer file.
func Load(path string) (Repro, error) {
	var r Repro
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("shrink: parsing %s: %v", path, err)
	}
	// A reproducer that forces tie decisions ("ties") names a schedule
	// the seed alone does not take; replay cannot force ties, so it would
	// silently run a different schedule.
	var retired struct {
		Ties []int `json:"ties"`
	}
	if err := json.Unmarshal(data, &retired); err != nil || len(retired.Ties) > 0 {
		return r, fmt.Errorf("shrink: %s: forced tie decisions (\"ties\") are not supported", path)
	}
	if err := r.Validate(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
