package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRingWrapAndDropped(t *testing.T) {
	tr := mustNew(t, 4)
	for i := 0; i < 6; i++ {
		tr.Instant(int64(i*1000), 0, CatMachine, "tick", int64(i), 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	evs := tr.Events()
	// Oldest two overwritten; survivors are 2..5 in arrival order.
	for i, want := range []int64{2, 3, 4, 5} {
		if evs[i].Arg1 != want {
			t.Fatalf("evs[%d].Arg1 = %d, want %d", i, evs[i].Arg1, want)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Begin(1, 0, CatKernel, "x", 0, 0)
	tr.End(2, 0, CatKernel, "x")
	tr.Instant(3, 0, CatKernel, "y", 0, 0)
	tr.Rebase("run")
	tr.NameProc(1, "p")
	if tr.Len() != 0 || tr.Cap() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer reported state")
	}
	if tr.Events() != nil || tr.Select(CatKernel) != nil {
		t.Fatal("nil tracer returned events")
	}
}

func TestRebaseKeepsTimestampsMonotonic(t *testing.T) {
	tr := mustNew(t, 16)
	tr.Instant(5_000, 1, CatKernel, "a", 0, 0)
	tr.Rebase("run2")
	// The second run restarts at virtual time zero; its events must still
	// land after the first run's on the shared session timeline.
	tr.Instant(1_000, 1, CatKernel, "b", 0, 0)
	evs := tr.Events()
	if len(evs) != 3 { // a, meta marker, b
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("timestamps went backwards: %d after %d", evs[i].TS, evs[i-1].TS)
		}
	}
	metas := tr.Select(CatMeta)
	if len(metas) != 1 || metas[0].Name != "run2" {
		t.Fatalf("meta markers = %+v, want one named run2", metas)
	}
}

func TestLoggingDoesNotAllocate(t *testing.T) {
	tr := mustNew(t, 1<<12)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Begin(1, 0, CatShootdown, "shootdown-sync", 3, 1)
		tr.Instant(2, 0, CatMachine, "ipi-send", 5, 0)
		tr.End(3, 0, CatShootdown, "shootdown-sync")
	})
	if allocs != 0 {
		t.Fatalf("logging allocated %.1f times per op, want 0", allocs)
	}
}

// chromeDoc mirrors the exported JSON shape for validation.
type chromeDoc struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	TraceEvents     []map[string]any `json:"traceEvents"`
	OtherData       map[string]any   `json:"otherData"`
}

func TestWriteChromeTrace(t *testing.T) {
	tr := mustNew(t, 64)
	tr.NameProc(2, "child0")
	tr.Begin(0, 1, CatKernel, "thread-run", 7, 0)
	tr.Instant(500, 1, CatTLB, "tlb-miss", 1, 0)
	tr.Instant(800, 1, CatMachine, "ipi-send", 2, 0)
	tr.Begin(1_000, 1, CatShootdown, "shootdown-sync", 1, 0)
	tr.End(4_000, 1, CatShootdown, "shootdown-sync")
	tr.Instant(4_200, 2, CatSim, "sleep", 0, 0)
	tr.End(5_000, 1, CatKernel, "thread-run")

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}

	cats := map[string]bool{}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if cat, ok := ev["cat"].(string); ok {
			cats[cat] = true
		}
		if ph != "M" {
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("event missing numeric ts: %v", ev)
			}
		}
	}
	for _, want := range []string{"kernel", "tlb", "machine", "shootdown", "sim"} {
		if !cats[want] {
			t.Fatalf("category %q missing from export (got %v)", want, cats)
		}
	}
	if phases["B"] != phases["E"] {
		t.Fatalf("unbalanced spans: %d B vs %d E", phases["B"], phases["E"])
	}
	if phases["M"] == 0 {
		t.Fatal("no metadata events naming the timelines")
	}
	if doc.OtherData["dropped"].(float64) != 0 {
		t.Fatalf("otherData.dropped = %v, want 0", doc.OtherData["dropped"])
	}
	// CatSim events go to the proc process row, others to the CPU row.
	for _, ev := range doc.TraceEvents {
		if ev["cat"] == "sim" && ev["pid"].(float64) != 1 {
			t.Fatalf("sim event on pid %v, want 1", ev["pid"])
		}
		if ev["cat"] == "tlb" && ev["pid"].(float64) != 0 {
			t.Fatalf("tlb event on pid %v, want 0", ev["pid"])
		}
	}
}

func TestWriteChromeTraceNil(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("nil tracer exported %d events", len(doc.TraceEvents))
	}
}

// mustNew builds a tracer or fails the test.
func mustNew(t *testing.T, size int) *Tracer {
	t.Helper()
	tr, err := New(size)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewRejectsInvalidSize(t *testing.T) {
	for _, size := range []int{0, -1} {
		if tr, err := New(size); err == nil {
			t.Errorf("New(%d) = %v, want error", size, tr)
		}
		if r, err := NewRecorder(size); err == nil {
			t.Errorf("NewRecorder(%d) = %v, want error", size, r)
		}
	}
}
