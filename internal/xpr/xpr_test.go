package xpr

import (
	"slices"
	"testing"

	"shootdown/internal/sim"
)

func TestLogAndReadBack(t *testing.T) {
	b := New(8)
	b.LogInitiator(100, 2, true, 3, 5, 430000)
	b.LogResponder(200, 4, 55000)
	evs := b.Events()
	if len(evs) != 2 {
		t.Fatalf("Len = %d", len(evs))
	}
	kernel, pages, procs, elapsed := evs[0].Initiator()
	if !kernel || pages != 3 || procs != 5 || elapsed != 430000 {
		t.Fatalf("initiator decode = %v %d %d %d", kernel, pages, procs, elapsed)
	}
	if got := evs[1].Responder(); got != 55000 {
		t.Fatalf("responder decode = %d", got)
	}
	if evs[0].CPU != 2 || evs[1].CPU != 4 {
		t.Fatal("CPU fields wrong")
	}
}

// TestOnOff checks that a new buffer records and that Off stops it
// without touching what it holds or the drop count experiment output
// reports.
func TestOnOff(t *testing.T) {
	b := New(2)
	for i := 0; i < 7; i++ {
		b.LogResponder(sim.Time(i), 0, 10)
	}
	if b.Len() != 2 || b.Dropped() != 5 {
		t.Fatalf("new buffer: Len %d, Dropped %d, want 2 and 5", b.Len(), b.Dropped())
	}
	b.Off()
	b.LogResponder(99, 0, 10)
	if got := times(b); !slices.Equal(got, []sim.Time{5, 6}) || b.Dropped() != 5 {
		t.Fatalf("logging while off changed the buffer: holds %v, dropped %d", got, b.Dropped())
	}
}

func TestWraparound(t *testing.T) {
	b := New(3)
	for i := 0; i < 5; i++ {
		b.LogResponder(sim.Time(i), 0, sim.Time(i*1000))
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", b.Dropped())
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	evs := b.Events()
	// Oldest two lost; remaining are 2,3,4 in order.
	for i, want := range []sim.Time{2, 3, 4} {
		if evs[i].Time != want {
			t.Fatalf("evs[%d].Time = %d, want %d", i, evs[i].Time, want)
		}
	}
}

func TestResponderSampling(t *testing.T) {
	b := New(16)
	b.SampleCPUs = map[int]bool{0: true, 3: true}
	for cpu := 0; cpu < 8; cpu++ {
		b.LogResponder(sim.Time(cpu), cpu, 100)
	}
	evs := b.Select(EvResponder)
	if len(evs) != 2 {
		t.Fatalf("sampled %d responder events, want 2", len(evs))
	}
	// Initiator events are never sampled away.
	b.LogInitiator(99, 7, false, 1, 1, 100)
	if len(b.Select(EvInitiator)) != 1 {
		t.Fatal("initiator event dropped by sampling")
	}
}

func TestSelectAndExtractors(t *testing.T) {
	b := New(16)
	b.LogInitiator(1, 0, true, 1, 2, 1000)  // kernel, 1µs
	b.LogInitiator(2, 0, false, 1, 2, 2000) // user, 2µs
	b.LogResponder(3, 1, 3000)
	kus, uus := b.InitiatorTimes()
	if len(kus) != 1 || kus[0] != 1.0 {
		t.Fatalf("kernel times = %v", kus)
	}
	if len(uus) != 1 || uus[0] != 2.0 {
		t.Fatalf("user times = %v", uus)
	}
	rs := b.ResponderTimes()
	if len(rs) != 1 || rs[0] != 3.0 {
		t.Fatalf("responder times = %v", rs)
	}
}

func TestInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(0)
}

// TestBufferBehavior drives size/sampling/volume combinations through one
// table: how many records survive, how many are dropped, and whether the
// survivors come back oldest-first after a wrap.
func TestBufferBehavior(t *testing.T) {
	cases := []struct {
		name        string
		size        int
		sample      map[int]bool // nil = no responder sampling
		responders  int          // one per CPU 0..responders-1, times 0..n-1
		wantLen     int
		wantDropped uint64
		wantFirstT  sim.Time // Time of the oldest surviving record
	}{
		{"fits exactly", 4, nil, 4, 4, 0, 0},
		{"wraps by one", 4, nil, 5, 4, 1, 1},
		{"wraps twice over", 3, nil, 9, 3, 6, 6},
		{"sampling avoids wrap", 4, map[int]bool{0: true, 2: true}, 8, 2, 0, 0},
		{"sampling then wrap", 2, map[int]bool{0: true, 1: true, 2: true}, 6, 2, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New(tc.size)
			b.SampleCPUs = tc.sample
			for cpu := 0; cpu < tc.responders; cpu++ {
				b.LogResponder(sim.Time(cpu), cpu, 100)
			}
			if b.Len() != tc.wantLen {
				t.Errorf("Len = %d, want %d", b.Len(), tc.wantLen)
			}
			if b.Dropped() != tc.wantDropped {
				t.Errorf("Dropped = %d, want %d", b.Dropped(), tc.wantDropped)
			}
			evs := b.Events()
			if len(evs) != tc.wantLen {
				t.Fatalf("Events len = %d, want %d", len(evs), tc.wantLen)
			}
			if tc.sample == nil {
				// Arrival order must survive the wrap: timestamps ascend
				// starting from the oldest retained record.
				for i, ev := range evs {
					if want := tc.wantFirstT + sim.Time(i); ev.Time != want {
						t.Fatalf("evs[%d].Time = %d, want %d", i, ev.Time, want)
					}
				}
			} else {
				for _, ev := range evs {
					if !tc.sample[ev.CPU] {
						t.Fatalf("unsampled CPU %d recorded", ev.CPU)
					}
				}
			}
		})
	}
}

// TestSustainedOverflowWithConsumer keeps logging well past capacity while
// a profiler-style consumer reads the buffer mid-stream. Reads must not
// perturb the ring (no double-counted drops, no resurrected records), and
// the final count must equal exactly total minus capacity.
func TestSustainedOverflowWithConsumer(t *testing.T) {
	const size = 8
	b := New(size)
	total := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < size; i++ {
			b.LogResponder(sim.Time(total), total%5, sim.Time(total)*10)
			total++
			if total%3 == 0 {
				// Mid-stream consumer: snapshot, filter, and check the
				// drop counter — all read-only.
				if n := len(b.Events()); n != b.Len() {
					t.Fatalf("Events len %d != Len %d mid-stream", n, b.Len())
				}
				_ = b.Select(EvResponder)
				if want := uint64(max(total-size, 0)); b.Dropped() != want {
					t.Fatalf("after %d logs Dropped = %d, want %d", total, b.Dropped(), want)
				}
			}
		}
	}
	want := uint64(total - size)
	if b.Dropped() != want {
		t.Errorf("Dropped = %d, want %d (each overflow counted exactly once)", b.Dropped(), want)
	}
	if b.Len() != size {
		t.Errorf("Len = %d, want %d", b.Len(), size)
	}
	evs := b.Events()
	if len(evs) != size {
		t.Fatalf("Events returned %d records, want %d", len(evs), size)
	}
	for i, ev := range evs {
		if wantT := sim.Time(total - size + i); ev.Time != wantT {
			t.Fatalf("evs[%d].Time = %d, want %d (newest records, oldest first)", i, ev.Time, wantT)
		}
	}
	// Repeated reads are idempotent on the drop accounting.
	for i := 0; i < 4; i++ {
		_ = b.Events()
		_ = b.Select(EvResponder)
	}
	if b.Dropped() != want || b.Len() != size {
		t.Errorf("reads changed accounting: Dropped = %d Len = %d, want %d/%d",
			b.Dropped(), b.Len(), want, size)
	}
}

func TestEventIDString(t *testing.T) {
	for _, id := range []EventID{EvInitiator, EvResponder, EventID(42)} {
		if id.String() == "" {
			t.Fatal("empty EventID string")
		}
	}
}

// times returns the timestamps of b's records in the order Events yields
// them.
func times(b *Buffer) []sim.Time {
	var out []sim.Time
	for _, ev := range b.Events() {
		out = append(out, ev.Time)
	}
	return out
}

// TestGrowThenWrapBoundary walks a buffer across the point where its
// storage stops growing and starts overwriting: the record that fills it
// drops nothing, and the next one drops exactly the oldest.
func TestGrowThenWrapBoundary(t *testing.T) {
	const size = 4
	b := New(size)
	if b.Len() != 0 || len(b.Events()) != 0 {
		t.Fatal("new buffer is not empty")
	}
	for i := 0; i < size; i++ {
		b.LogResponder(sim.Time(i), 0, 10)
		if b.Len() != i+1 || b.Dropped() != 0 {
			t.Fatalf("after %d records: Len %d, Dropped %d", i+1, b.Len(), b.Dropped())
		}
	}
	if got := times(b); !slices.Equal(got, []sim.Time{0, 1, 2, 3}) {
		t.Fatalf("full buffer holds %v", got)
	}
	b.LogResponder(4, 0, 10)
	if b.Len() != size || b.Dropped() != 1 {
		t.Fatalf("first overwrite: Len %d, Dropped %d", b.Len(), b.Dropped())
	}
	if got := times(b); !slices.Equal(got, []sim.Time{1, 2, 3, 4}) {
		t.Fatalf("after first overwrite buffer holds %v", got)
	}
	for i := 5; i < 11; i++ {
		b.LogResponder(sim.Time(i), 0, 10)
	}
	if got := times(b); !slices.Equal(got, []sim.Time{7, 8, 9, 10}) || b.Dropped() != 7 {
		t.Fatalf("after wrapping past the start: holds %v, dropped %d", got, b.Dropped())
	}
}
