package shrink

import (
	"path/filepath"
	"reflect"
	"testing"

	"shootdown/internal/fault"
)

func ids(seqs ...uint64) []fault.EventID {
	out := make([]fault.EventID, len(seqs))
	for i, s := range seqs {
		out[i] = fault.EventID{Kind: fault.KindDropIPI, Seq: s}
	}
	return out
}

// contains reports whether keep includes every member of need.
func contains(keep []fault.EventID, need ...uint64) bool {
	have := map[fault.EventID]bool{}
	for _, id := range keep {
		have[id] = true
	}
	for _, s := range need {
		if !have[fault.EventID{Kind: fault.KindDropIPI, Seq: s}] {
			return false
		}
	}
	return true
}

func TestMinimizeSingleCulprit(t *testing.T) {
	all := ids(0, 1, 2, 3, 4, 5, 6, 7)
	res := Minimize(all, func(keep []fault.EventID) bool {
		return contains(keep, 5)
	}, 0)
	if !reflect.DeepEqual(res.Keep, ids(5)) {
		t.Fatalf("Minimize found %v, want [drop:5]", res.Keep)
	}
}

func TestMinimizePairOfCulprits(t *testing.T) {
	// Failure needs two events from opposite ends: chunk-alone tests fail,
	// so ddmin must work through complements.
	all := ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	res := Minimize(all, func(keep []fault.EventID) bool {
		return contains(keep, 1, 8)
	}, 0)
	if !reflect.DeepEqual(res.Keep, ids(1, 8)) {
		t.Fatalf("Minimize found %v, want [drop:1 drop:8]", res.Keep)
	}
}

func TestMinimizeAllRequired(t *testing.T) {
	all := ids(0, 1, 2)
	res := Minimize(all, func(keep []fault.EventID) bool {
		return len(keep) == 3
	}, 0)
	if !reflect.DeepEqual(res.Keep, all) {
		t.Fatalf("Minimize dropped required events: %v", res.Keep)
	}
}

func TestMinimizeRespectsBudget(t *testing.T) {
	all := ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
	res := Minimize(all, func(keep []fault.EventID) bool {
		return contains(keep, 3)
	}, 3)
	if res.Tests > 3 {
		t.Fatalf("budget 3 but ran %d tests", res.Tests)
	}
	if !contains(res.Keep, 3) {
		t.Fatalf("budget-limited result %v lost the culprit", res.Keep)
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	all := ids(0, 1, 2, 3, 4, 5, 6, 7)
	f := func(keep []fault.EventID) bool { return contains(keep, 2, 6) }
	a, b := Minimize(all, f, 0), Minimize(all, f, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("minimization not deterministic: %+v vs %+v", a, b)
	}
}

func TestMaskFor(t *testing.T) {
	all := ids(0, 1, 2, 3)
	mask := MaskFor(all, ids(1, 3))
	if !reflect.DeepEqual(mask, ids(0, 2)) {
		t.Fatalf("MaskFor = %v, want [drop:0 drop:2]", mask)
	}
}

func TestReproRoundTrip(t *testing.T) {
	r := Repro{
		Version:  ReproVersion,
		Workload: "churn",
		Seed:     42,
		NCPUs:    4,
		Faults: fault.Config{
			Seed: 42, DropIPI: 0.2, FailStop: 1, Revive: 1,
			Mask: ids(0, 2),
		},
		Keep:    ids(1),
		Verdict: "oracle",
		Bug:     "skip-revive-flush",
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := Save(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip:\n%+v\n%+v", got, r)
	}
}

func TestLoadRejectsBadRepros(t *testing.T) {
	bad := []Repro{
		{Version: 99, Workload: "w", NCPUs: 2, Verdict: "oracle"},
		{Version: ReproVersion, Workload: "", NCPUs: 2, Verdict: "oracle"},
		{Version: ReproVersion, Workload: "w", NCPUs: 0, Verdict: "oracle"},
		{Version: ReproVersion, Workload: "w", NCPUs: 2, Verdict: "ok"},
		// A misspelled bug would otherwise replay a world with no bug.
		{Version: ReproVersion, Workload: "w", NCPUs: 2, Verdict: "oracle", Bug: "skip-revive-flsh"},
	}
	for i, r := range bad {
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := Save(path, r); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("case %d: bad repro %+v loaded without error", i, r)
		}
	}
}
