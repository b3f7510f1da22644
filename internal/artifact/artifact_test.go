package artifact

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shootdown/internal/profile"
	"shootdown/internal/snap"
	"shootdown/internal/trace"
)

// ev builds one trace event.
func ev(ph, name, cat string, tsUS float64, pid, tid int) TraceEvent {
	return TraceEvent{Name: name, Cat: cat, Ph: ph, TS: tsUS, Pid: pid, Tid: tid}
}

// Span pairing must match begin/end per timeline and name, nest properly,
// and drop pairs truncated by ring wraparound.
func TestSpans(t *testing.T) {
	doc := &TraceDoc{Events: []TraceEvent{
		ev("E", "wrapped", "machine", 1, 0, 0), // end without begin: ring wrapped
		ev("B", "outer", "shootdown", 10, 0, 0),
		ev("B", "inner", "machine", 12, 0, 0),
		ev("E", "inner", "machine", 15, 0, 0),
		ev("B", "other", "machine", 11, 0, 1), // same name space, other CPU
		ev("E", "other", "machine", 21, 0, 1),
		ev("E", "outer", "shootdown", 30, 0, 0),
		ev("B", "open", "tlb", 40, 0, 2), // begin without end: trip mid-span
	}}
	spans := Spans(doc)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	// Start-ordered: outer(10), other(11), inner(12).
	if spans[0].Name != "outer" || spans[0].DurUS != 20 {
		t.Fatalf("span[0] = %+v, want outer dur 20", spans[0])
	}
	if spans[1].Name != "other" || spans[1].Tid != 1 || spans[1].DurUS != 10 {
		t.Fatalf("span[1] = %+v, want other on cpu1 dur 10", spans[1])
	}
	if spans[2].Name != "inner" || spans[2].DurUS != 3 {
		t.Fatalf("span[2] = %+v, want inner dur 3", spans[2])
	}
}

// The filter clauses compose: CPU restricts to pid-0 rows, name is a
// substring, the window clips by overlap.
func TestFilter(t *testing.T) {
	spans := []Span{
		{Name: "tlb-flush", Cat: "tlb", Pid: 0, Tid: 1, StartUS: 10, DurUS: 5},
		{Name: "tlb-flush", Cat: "tlb", Pid: 0, Tid: 2, StartUS: 20, DurUS: 5},
		{Name: "proc-run", Cat: "sim", Pid: 1, Tid: 1, StartUS: 10, DurUS: 50},
	}
	if got := (Filter{CPU: 1}).Select(spans); len(got) != 1 || got[0].Tid != 1 || got[0].Pid != 0 {
		t.Fatalf("CPU filter = %+v, want only cpu1 pid0", got)
	}
	if got := (Filter{CPU: -1, Name: "flush"}).Select(spans); len(got) != 2 {
		t.Fatalf("name filter = %+v, want both flushes", got)
	}
	// The window matches by overlap, so the long sim span qualifies too;
	// the cat clause narrows it back down.
	if got := (Filter{CPU: -1, FromUS: 16, ToUS: 30}).Select(spans); len(got) != 2 {
		t.Fatalf("window filter = %+v, want the second flush and the overlapping proc-run", got)
	}
	if got := (Filter{CPU: -1, Cat: "tlb", FromUS: 16, ToUS: 30}).Select(spans); len(got) != 1 || got[0].Tid != 2 {
		t.Fatalf("window+cat filter = %+v, want only the second flush", got)
	}
}

// Validate must fail on the invariants the CI smoke check relies on.
func TestValidateFailures(t *testing.T) {
	base := func() *TraceDoc {
		return &TraceDoc{Events: []TraceEvent{
			ev("i", "run", "sim", 0, 1, 0),
			ev("i", "ipi", "machine", 1, 0, 0),
			ev("B", "sync", "shootdown", 2, 0, 0),
			ev("E", "sync", "shootdown", 3, 0, 0),
			ev("i", "flush", "tlb", 4, 0, 0),
		}}
	}
	if _, err := base().Validate(); err != nil {
		t.Fatalf("well-formed doc rejected: %v", err)
	}
	empty := &TraceDoc{}
	if _, err := empty.Validate(); err == nil {
		t.Fatal("empty doc accepted")
	}
	missing := base()
	for i := range missing.Events {
		if missing.Events[i].Cat == "tlb" {
			missing.Events[i].Cat = "machine"
		}
	}
	if _, err := missing.Validate(); err == nil || !strings.Contains(err.Error(), "tlb") {
		t.Fatalf("doc without tlb events accepted (err %v)", err)
	}
	unbal := base()
	unbal.Events = unbal.Events[:len(unbal.Events)-2] // drop the E and the tlb instant
	unbal.Events = append(unbal.Events, ev("i", "flush", "tlb", 4, 0, 0))
	if _, err := unbal.Validate(); err == nil || !strings.Contains(err.Error(), "unbalanced") {
		t.Fatalf("unbalanced doc accepted (err %v)", err)
	}
}

// shoot builds one completed shootdown record with a single responder
// whose post→ack attribution is given.
func shoot(seq, cpu, pages int, busNS, spinNS int64) profile.ShootExport {
	start := int64(seq) * 100_000
	send := start + 2_000
	wait := send + 1_000
	ack := wait + busNS + spinNS + 5_000
	return profile.ShootExport{
		Seq: seq, CPU: cpu, Pages: pages,
		StartNS: start, SendNS: send, WaitNS: wait, EndNS: ack + 1_000,
		LastCPU: 9,
		Responders: []profile.RespExport{{
			CPU: 9, PostNS: send, DeliverNS: send + 500, AckNS: ack,
			Components: profile.Components{BusNS: busNS, SpinNS: spinNS, OtherNS: 5_000, Why: "bus"},
		}},
	}
}

func export(recs ...profile.ShootExport) *profile.ShootdownsExport {
	return &profile.ShootdownsExport{Format: profile.ShootdownExportFormat, IRQLatNS: 500, Records: recs}
}

// A synthetic bus slowdown in the new run must be attributed to the wait
// edge and, within it, to the bus component — the acceptance scenario for
// `tlbtrace diff`.
func TestDiffAttributesBusSlowdown(t *testing.T) {
	oldExp := export(shoot(0, 1, 1, 1_000, 200), shoot(1, 2, 4, 1_000, 200))
	newExp := export(shoot(0, 1, 1, 9_000, 200), shoot(1, 2, 4, 9_000, 200))
	rep := DiffShootdowns(oldExp, newExp)
	if rep.Matched != 2 || rep.OldOnly != 0 || rep.NewOnly != 0 {
		t.Fatalf("alignment = %d/%d/%d, want 2 matched", rep.Matched, rep.OldOnly, rep.NewOnly)
	}
	if rep.NewSyncNS-rep.OldSyncNS != 16_000 {
		t.Fatalf("total delta = %dns, want 16000", rep.NewSyncNS-rep.OldSyncNS)
	}
	if !strings.Contains(rep.Verdict, "wait edge grew") {
		t.Fatalf("verdict %q does not name the wait edge", rep.Verdict)
	}
	if !strings.Contains(rep.Verdict, "bus") {
		t.Fatalf("verdict %q does not attribute the growth to bus stall", rep.Verdict)
	}
}

// Alignment is by identity and occurrence, not sequence number: an extra
// early shootdown in the new run must not shift every later match.
func TestDiffIdentityAlignment(t *testing.T) {
	oldExp := export(shoot(0, 1, 1, 1_000, 0), shoot(1, 2, 1, 1_000, 0))
	extra := shoot(0, 3, 8, 1_000, 0) // new run only: different identity
	a := shoot(1, 1, 1, 1_000, 0)
	b := shoot(2, 2, 1, 1_000, 0)
	newExp := export(extra, a, b)
	rep := DiffShootdowns(oldExp, newExp)
	if rep.Matched != 2 || rep.NewOnly != 1 || rep.OldOnly != 0 {
		t.Fatalf("alignment = matched %d oldOnly %d newOnly %d, want 2/0/1",
			rep.Matched, rep.OldOnly, rep.NewOnly)
	}
	if !strings.Contains(rep.Verdict, "no virtual-time movement") {
		t.Fatalf("verdict %q, want no movement (matched records are identical)", rep.Verdict)
	}
}

// SlowestShootdown picks the largest end-to-end sync, ties to lower seq.
func TestSlowestShootdown(t *testing.T) {
	fast := shoot(0, 1, 1, 1_000, 0)
	slow := shoot(1, 2, 1, 50_000, 0)
	r, ok := SlowestShootdown(export(fast, slow))
	if !ok || r.Seq != 1 {
		t.Fatalf("slowest = seq %d ok %v, want seq 1", r.Seq, ok)
	}
}

// sampleSnapshot builds a small valid whole-simulation snapshot.
func sampleSnapshot(t *testing.T) *snap.Snapshot {
	t.Helper()
	s := snap.New(1500, 2_000_000, nil)
	if err := s.AddLayer("machine", map[string]any{"ncpus": 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddLayer("oracle", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	return s
}

// LoadSnapshot sniffs standalone snapshot files — compact or re-indented
// by a carrier — and ValidateSnapshot confirms digest and round trip.
func TestLoadAndValidateSnapshotFile(t *testing.T) {
	s := sampleSnapshot(t)
	dir := t.TempDir()
	compact, _ := json.Marshal(s)
	pretty, _ := json.MarshalIndent(s, "", "  ")
	for name, raw := range map[string][]byte{"compact.json": compact, "pretty.json": pretty} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if !SniffSnapshot(path) {
			t.Fatalf("%s: not sniffed as a snapshot", name)
		}
		got, err := LoadSnapshot(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := ValidateSnapshot(got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok, diff := snap.Equal(s, got); !ok {
			t.Fatalf("%s: loaded snapshot diverged: %s", name, diff)
		}
	}
	// Tampering must be caught after load.
	bad := append([]byte(nil), compact...)
	bad = bytes.Replace(bad, []byte(`"ncpus":4`), []byte(`"ncpus":5`), 1)
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateSnapshot(got); err == nil {
		t.Fatal("ValidateSnapshot accepted a tampered snapshot")
	}
}

// SnapshotFromBox pulls the restore point out of a black box's
// "snapshots" section, normalizing away the box's pretty-printing.
func TestSnapshotFromBox(t *testing.T) {
	s := sampleSnapshot(t)
	embedded, _ := json.MarshalIndent(s, "", "  ") // as the indenting dump writes it
	box := &trace.BlackBox{
		Format: trace.BlackBoxFormat,
		State:  []trace.BlackBoxState{{Name: "snapshots", Data: embedded}},
	}
	got, ok, err := SnapshotFromBox(box)
	if err != nil || !ok {
		t.Fatalf("SnapshotFromBox = ok %v, err %v", ok, err)
	}
	if _, err := ValidateSnapshot(got); err != nil {
		t.Fatal(err)
	}
	if ok, diff := snap.Equal(s, got); !ok {
		t.Fatalf("embedded snapshot diverged: %s", diff)
	}
	// Boxes from before the snapshots provider have no section.
	if _, ok, err := SnapshotFromBox(&trace.BlackBox{Format: trace.BlackBoxFormat}); err != nil || ok {
		t.Fatalf("legacy box: ok %v, err %v, want absent", ok, err)
	}
}
