package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"shootdown/internal/fault"
	"shootdown/internal/fault/shrink"
	"shootdown/internal/kernel"
	"shootdown/internal/trace"
	"shootdown/internal/workload"
)

// hotplugCell is the 4-CPU hot-plug campaign world at seed with the
// stale-TLB-after-revive bug planted.
func hotplugCell(t *testing.T, seed int64) workload.AppConfig {
	t.Helper()
	fc, err := fault.ParseSpec("failstop=0.9,failby=8ms,revive=1,reviveafter=4ms")
	if err != nil {
		t.Fatal(err)
	}
	fc.Seed = seed + 257
	return campaignCell(seed, 4, fc, shrink.BugSkipReviveFlush)
}

// TestCandidateBound pins how a shrink candidate is judged: it stops at
// its first oracle violation, and a world still running at the step bound
// has not reproduced the failure. The hot-plug cell at seed 7 with the
// bug planted and nothing masked violates at step 3,977.
func TestCandidateBound(t *testing.T) {
	const violationStep = 3977
	cell := hotplugCell(t, 7)
	if v, _ := candidate("churn", cell, violationStep+100); v != kernel.VerdictOracle {
		t.Fatalf("bound past the violation: verdict %q, want %q", v, kernel.VerdictOracle)
	}
	if v, _ := candidate("churn", cell, violationStep-100); v != kernel.VerdictOK {
		t.Fatalf("bound before the violation: verdict %q, want %q", v, kernel.VerdictOK)
	}
}

// TestBlackBoxFaultsHoldTheTail pins the black box's bound on the fault
// log: a run that trips after more than fault.TailLen events carries the
// last fault.TailLen of them, oldest first, plus the count of earlier
// events it dropped, and its last event is the injector's last at the
// trip.
func TestBlackBoxFaultsHoldTheTail(t *testing.T) {
	dir := t.TempDir()
	fr, err := trace.NewRecorder(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	fr.SetDir(dir)
	fr.SetMaxDumps(1)
	c := hotplugCell(t, 7)
	c.Faults.BusJitter, c.Faults.BusJitterMax = 0.5, 2_000
	c.Flight = fr
	k, err := workload.StartChurn(c)
	if err != nil {
		t.Fatal(err)
	}
	inj := k.M.Faults()
	inj.KeepEvents()
	var loggedAtTrip int
	fr.Register("probe", func() any {
		loggedAtTrip = inj.Snapshot().Events
		return nil
	})
	if err := k.Run(); kernel.Verdict(err) == kernel.VerdictOK {
		t.Fatal("planted bug did not fail the run")
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("flight recorder wrote %d black boxes (%v), want 1", len(ents), err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	var box trace.BlackBox
	if err := json.Unmarshal(raw, &box); err != nil {
		t.Fatal(err)
	}
	var faults struct {
		Dropped int           `json:"dropped"`
		Events  []fault.Event `json:"events"`
	}
	for _, st := range box.State {
		if st.Name == "faults" {
			if err := json.Unmarshal(st.Data, &faults); err != nil {
				t.Fatal(err)
			}
		}
	}
	if loggedAtTrip <= fault.TailLen {
		t.Fatalf("run tripped after %d fault events, want more than %d", loggedAtTrip, fault.TailLen)
	}
	if len(faults.Events) != fault.TailLen || faults.Dropped != loggedAtTrip-fault.TailLen {
		t.Fatalf("faults section holds %d events and dropped %d, want %d and %d",
			len(faults.Events), faults.Dropped, fault.TailLen, loggedAtTrip-fault.TailLen)
	}
	log := inj.Events()
	if want := log[faults.Dropped:loggedAtTrip]; !reflect.DeepEqual(faults.Events, want) {
		t.Fatalf("faults section is not the log's last %d events at the trip: last %+v, want %+v",
			fault.TailLen, faults.Events[fault.TailLen-1], want[fault.TailLen-1])
	}
	t.Logf("%s trip after %d fault events (%d dropped from the box)", box.Reason, loggedAtTrip, faults.Dropped)
}
