package profile

import (
	"testing"

	"shootdown/internal/trace"
)

// observedShapes are the per-event shapes of an observed run, each emitted
// at raw time ts into a stream with a ring and a profiler: a bus stall
// that refetches once after queueing, an uncontended and a contended lock
// acquire with its release, and one ring-and-profiler event (the idle loop
// dispatching).
var observedShapes = []struct {
	name string
	emit func(tr *trace.Tracer, ts int64)
}{
	{"bus-stall", func(tr *trace.Tracer, ts int64) {
		tr.Emit(trace.KindBusBegin, ts, 0, "spin-refetch", 1, 0)
		tr.Emit(trace.KindBusWait, ts, 0, "bus-wait", 40, 0)
		tr.Emit(trace.KindBusEnd, ts+1, 0, "", 0, 0)
	}},
	{"lock", func(tr *trace.Tracer, ts int64) {
		tr.Emit(trace.KindLockAcquire, ts, 0, "pmap:1", 0, 0)
		tr.Emit(trace.KindLockRelease, ts+1, 0, "pmap:1", 1, 0)
	}},
	{"lock-contended", func(tr *trace.Tracer, ts int64) {
		tr.Emit(trace.KindLockSpin, ts, 0, "pmap:1", 0, 0)
		tr.Emit(trace.KindLockAcquire, ts+1, 0, "pmap:1", 1, 0)
		tr.Emit(trace.KindLockRelease, ts+1, 0, "pmap:1", 0, 0)
	}},
	{"emit", func(tr *trace.Tracer, ts int64) {
		tr.Emit(trace.KindDispatch, ts, 0, "idle", 0, 0)
	}},
}

// observedStream returns a stream with a 1024-event ring and a profiler,
// cpu 0 already running: what churn-observed attaches, once warm.
func observedStream(tb testing.TB) *trace.Tracer {
	tb.Helper()
	ring, err := trace.New(1 << 10)
	if err != nil {
		tb.Fatal(err)
	}
	tr := trace.Stream(ring, nil, New())
	tr.BeginRun("bench", 8)
	tr.Emit(trace.KindDispatch, 0, 0, "idle", 0, 0)
	return tr
}

// TestObservedEventsAllocateNothing pins each shape at zero host
// allocations once the stream is warm: the profiler charges a cached cell
// and bucket and finds each contention profile in its per-CPU cache, and
// the ring overwrites a record in place. Time advances 2 ns per call, so
// every call but the first stays in its timeline bucket.
func TestObservedEventsAllocateNothing(t *testing.T) {
	for _, s := range observedShapes {
		tr := observedStream(t)
		ts := int64(1)
		s.emit(tr, ts)
		if allocs := testing.AllocsPerRun(1000, func() { ts += 2; s.emit(tr, ts) }); allocs != 0 {
			t.Errorf("%s: %v allocations per event, want 0", s.name, allocs)
		}
	}
}

// BenchmarkObservedEvent measures each shape's host cost in an observed
// stream: the observers' price per event.
func BenchmarkObservedEvent(b *testing.B) {
	for _, s := range observedShapes {
		b.Run(s.name, func(b *testing.B) {
			tr := observedStream(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.emit(tr, int64(2*i+1))
			}
		})
	}
}
