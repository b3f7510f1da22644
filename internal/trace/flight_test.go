package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fillRing records n instants with ascending timestamps.
func fillRing(t *Tracer, n int, start int64) {
	for i := 0; i < n; i++ {
		t.Instant(start+int64(i), i%4, CatMachine, "ev", int64(i), 0)
	}
}

// A wrapped ring keeps the newest events and counts every overwrite.
func TestRingWraparoundCountsDrops(t *testing.T) {
	r, err := NewRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	fillRing(r.Ring(), 20, 0)
	if got := r.Ring().Len(); got != 8 {
		t.Fatalf("ring holds %d events, want 8", got)
	}
	if got := r.Ring().Dropped(); got != 12 {
		t.Fatalf("ring dropped %d events, want 12", got)
	}
	evs := r.Ring().Events()
	if evs[0].TS != 12 || evs[len(evs)-1].TS != 19 {
		t.Fatalf("retained window [%d, %d], want [12, 19]", evs[0].TS, evs[len(evs)-1].TS)
	}
}

// A black box dumped after wraparound must carry the retained window and
// state its own incompleteness via the drop counter.
func TestDumpUnderWraparound(t *testing.T) {
	r, err := NewRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	fillRing(r.Ring(), 20, 0)
	r.Register("probe", func() any { return map[string]int{"x": 1} })

	var buf bytes.Buffer
	if err := r.Dump(&buf, 0, 19, "watchdog", "test trip"); err != nil {
		t.Fatal(err)
	}
	var box BlackBox
	if err := json.Unmarshal(buf.Bytes(), &box); err != nil {
		t.Fatal(err)
	}
	if box.Format != BlackBoxFormat {
		t.Fatalf("format %q, want %q", box.Format, BlackBoxFormat)
	}
	if box.Ring.Capacity != 8 || box.Ring.Retained != 8 || box.Ring.Dropped != 12 {
		t.Fatalf("ring accounting cap=%d retained=%d dropped=%d, want 8/8/12",
			box.Ring.Capacity, box.Ring.Retained, box.Ring.Dropped)
	}
	if len(box.Ring.Events) != box.Ring.Retained {
		t.Fatalf("box carries %d events but claims %d retained", len(box.Ring.Events), box.Ring.Retained)
	}
	if box.Ring.Events[0].TS != 12 {
		t.Fatalf("oldest retained event at %dns, want 12", box.Ring.Events[0].TS)
	}
	if len(box.State) != 1 || box.State[0].Name != "probe" {
		t.Fatalf("state sections %+v, want one named probe", box.State)
	}
}

// Two identical event sequences with identical providers must dump
// byte-identical black boxes — the property chaos CI relies on to compare
// failing runs.
func TestDumpDeterminism(t *testing.T) {
	dump := func() []byte {
		r, err := NewRecorder(16)
		if err != nil {
			t.Fatal(err)
		}
		tr := r.Ring()
		for i := 0; i < 40; i++ {
			tr.Begin(int64(i*10), i%3, CatShootdown, "sync", int64(i), 0)
			tr.End(int64(i*10+5), i%3, CatShootdown, "sync")
		}
		r.Register("cpus", func() any {
			return []struct {
				ID    int    `json:"id"`
				State string `json:"state"`
			}{{0, "running"}, {1, "spinning"}, {2, "idle"}}
		})
		r.Register("stats", func() any { return struct{ N int }{40} })
		var buf bytes.Buffer
		if err := r.Dump(&buf, 3, 395, "oracle", "stale pte"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs dumped different black boxes:\n%s\n---\n%s", a, b)
	}
}

// The dump cap suppresses writes but never trip accounting, and the
// written files are named by trip index and reason.
func TestMaxDumpsCap(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	r.SetDir(dir)
	r.SetMaxDumps(2)
	fillRing(r.Ring(), 4, 0)
	for i := 0; i < 5; i++ {
		r.Trip(int64(100+i), "watchdog", fmt.Sprintf("trip %d", i))
	}
	if got := len(r.Trips()); got != 5 {
		t.Fatalf("recorded %d trips, want 5", got)
	}
	if got := r.Dumped(); got != 2 {
		t.Fatalf("wrote %d black boxes, want 2 (capped)", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("directory holds %d files, want 2", len(ents))
	}
	for i, trip := range r.Trips() {
		if i < 2 {
			want := filepath.Join(dir, fmt.Sprintf("blackbox-%d-watchdog.json", i))
			if trip.Path != want {
				t.Fatalf("trip %d path %q, want %q", i, trip.Path, want)
			}
		} else if trip.Path != "" {
			t.Fatalf("suppressed trip %d has path %q", i, trip.Path)
		}
	}
}

// Providers are snapshotted in registration order: the order is part of
// the wire format, so post-mortems can diff sections positionally.
func TestProviderOrder(t *testing.T) {
	r, err := NewRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine", "cpus", "shootdown", "oracle"} {
		n := name
		r.Register(n, func() any { return n })
	}
	var buf bytes.Buffer
	if err := r.Dump(&buf, 0, 0, "deadlock", ""); err != nil {
		t.Fatal(err)
	}
	var box BlackBox
	if err := json.Unmarshal(buf.Bytes(), &box); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range box.State {
		got = append(got, st.Name)
	}
	want := "engine cpus shootdown oracle"
	if strings.Join(got, " ") != want {
		t.Fatalf("provider order %v, want %q", got, want)
	}
}

// BeginRun clears providers (each kernel registers fresh objects) but
// keeps the session's trip sequence and dump count.
func TestBeginRunKeepsTrips(t *testing.T) {
	r, err := NewRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	r.Register("stale", func() any { return "old kernel" })
	r.Trip(10, "oracle", "first run")
	r.BeginRun()
	var buf bytes.Buffer
	if err := r.Dump(&buf, 1, 20, "oracle", "second run"); err != nil {
		t.Fatal(err)
	}
	var box BlackBox
	if err := json.Unmarshal(buf.Bytes(), &box); err != nil {
		t.Fatal(err)
	}
	if len(box.State) != 0 {
		t.Fatalf("providers survived BeginRun: %+v", box.State)
	}
	if got := len(r.Trips()); got != 1 {
		t.Fatalf("BeginRun lost trips: have %d, want 1", got)
	}
}

// A provider whose value cannot marshal must not lose the rest of the box.
func TestProviderMarshalErrorIsolated(t *testing.T) {
	r, err := NewRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	r.Register("bad", func() any { return func() {} }) // funcs don't marshal
	r.Register("good", func() any { return 7 })
	var buf bytes.Buffer
	if err := r.Dump(&buf, 0, 0, "error", ""); err != nil {
		t.Fatal(err)
	}
	var box BlackBox
	if err := json.Unmarshal(buf.Bytes(), &box); err != nil {
		t.Fatal(err)
	}
	if len(box.State) != 2 {
		t.Fatalf("state sections %d, want 2", len(box.State))
	}
	if !strings.Contains(string(box.State[0].Data), "marshal error") {
		t.Fatalf("bad provider slot = %s, want a marshal error note", box.State[0].Data)
	}
	if string(box.State[1].Data) != "7" {
		t.Fatalf("good provider slot = %s, want 7", box.State[1].Data)
	}
}

// Every method must be a no-op on a nil recorder so call sites need no
// nil checks (the same contract as the tracer).
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.SetDir("/nope")
	r.SetMaxDumps(1)
	r.BeginRun()
	r.Register("x", func() any { return 1 })
	r.AttachRing(nil)
	r.Trip(0, "watchdog", "nil")
	if r.Ring() != nil || r.Trips() != nil || r.Dumped() != 0 {
		t.Fatal("nil recorder returned non-zero state")
	}
	if err := r.Dump(&bytes.Buffer{}, 0, 0, "x", ""); err == nil {
		t.Fatal("Dump on nil recorder should error, not panic silently succeeding")
	}
}

// Attaching an external session tracer makes it the black box's window.
func TestAttachRing(t *testing.T) {
	session, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	r.AttachRing(session)
	session.Instant(42, 1, CatTLB, "flush", 0, 0)
	var buf bytes.Buffer
	if err := r.Dump(&buf, 0, 42, "watchdog", ""); err != nil {
		t.Fatal(err)
	}
	var box BlackBox
	if err := json.Unmarshal(buf.Bytes(), &box); err != nil {
		t.Fatal(err)
	}
	if box.Ring.Capacity != 8 || box.Ring.Retained != 1 || box.Ring.Events[0].Name != "flush" {
		t.Fatalf("attached ring not reflected in box: %+v", box.Ring)
	}
}

// A recorder builds its owned ring only when it is first used, so one
// that attaches a session tracer never pays for a ring it would discard.
func TestOwnedRingBuiltOnFirstUse(t *testing.T) {
	var r *Recorder
	if allocs := testing.AllocsPerRun(10, func() { r, _ = NewRecorder(1 << 16) }); allocs != 1 {
		t.Errorf("NewRecorder: %v allocations, want 1 (the recorder alone)", allocs)
	}
	r, err := NewRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	ring := r.Ring()
	if ring.Cap() != 4 || r.Ring() != ring {
		t.Fatalf("owned ring: cap %d, same ring on second use %v; want 4, true", ring.Cap(), r.Ring() == ring)
	}
}
