// Package trace is the full-fidelity observability layer for the simulated
// multiprocessor: the one observation stream that every layer of the stack
// (sim engine, machine, shootdown protocol, TLBs, kernel) emits into, with
// its event ring, its subscribers (stream.go) and flight recorder
// (flight.go), a Chrome trace-event exporter for timeline inspection in
// chrome://tracing or Perfetto, and a Prometheus-style text metrics
// snapshot.
//
// It generalizes the xpr ring-buffer design (Section 6 of the paper): fixed
// pre-allocated records, a free-running virtual timestamp per record, and no
// locking (the discrete-event engine serializes all producers). Two properties
// are load-bearing:
//
//  1. Recording is zero-allocation and zero-virtual-time on the hot path:
//     logging writes one record's fields in place into a pre-allocated ring
//     (no Event is staged and copied) and never charges simulated time or
//     consumes simulation randomness, so enabling tracing cannot perturb
//     virtual-time results (the §6.1 guarantee, enforced by a determinism
//     test).
//
//  2. Wraparound is never silent: when the ring is full the oldest record is
//     overwritten and Dropped is incremented, so a truncated trace is always
//     distinguishable from a complete one.
//
// All methods are safe on a nil *Tracer (they do nothing), so instrumented
// code needs no nil checks at call sites.
package trace

import "fmt"

// Category classifies an event by the layer that produced it. Categories
// become the "cat" field of exported Chrome trace events.
type Category uint8

// Event categories, one per instrumented layer.
const (
	// CatSim: discrete-event engine scheduling (proc run/sleep/block/preempt).
	CatSim Category = iota
	// CatMachine: hardware events (IPI send/deliver, IPL changes, bus waits).
	CatMachine
	// CatShootdown: the consistency protocol's phases (sync, respond, stall).
	CatShootdown
	// CatTLB: translation buffer events (hit, miss, invalidate, flush).
	CatTLB
	// CatKernel: thread dispatch and idle transitions.
	CatKernel
	// CatMeta: tracer-internal markers (run boundaries from Rebase).
	CatMeta
	// CatDevice: device (IOMMU/device-TLB) events — doorbell posts and
	// rings, queue service, completions, resets, quarantines. Appended
	// after CatMeta so pre-device category numbering is unchanged.
	CatDevice
)

func (c Category) String() string {
	switch c {
	case CatSim:
		return "sim"
	case CatMachine:
		return "machine"
	case CatShootdown:
		return "shootdown"
	case CatTLB:
		return "tlb"
	case CatKernel:
		return "kernel"
	case CatMeta:
		return "meta"
	case CatDevice:
		return "device"
	default:
		return "unknown"
	}
}

// Phase is the event kind, mirroring the Chrome trace-event phases.
type Phase uint8

// Event phases.
const (
	// PhaseBegin opens a span on a timeline; it must be matched by a
	// PhaseEnd with the same name on the same timeline.
	PhaseBegin Phase = iota
	// PhaseEnd closes the most recent open span on a timeline.
	PhaseEnd
	// PhaseInstant marks a point event.
	PhaseInstant
)

func (p Phase) String() string {
	switch p {
	case PhaseBegin:
		return "B"
	case PhaseEnd:
		return "E"
	case PhaseInstant:
		return "i"
	default:
		return "?"
	}
}

// Event is one fixed-size trace record. Name must be a string that outlives
// the tracer (in practice: a constant or an already-retained name), so
// recording never allocates.
type Event struct {
	TS   int64 // virtual ns, already rebased onto the session timeline
	CPU  int32 // CPU number; proc id for CatSim events; -1 when unbound
	Cat  Category
	Ph   Phase
	Name string
	Arg1 int64
	Arg2 int64
}

// Tracer is the observation stream: a fixed-capacity ring of events plus
// the subscribers Stream wires to it. Call New for a ring, or Stream for a
// stream. A nil *Tracer is a valid "observation off" value: every method is
// a no-op on it.
type Tracer struct {
	events  []Event // nil for a stream with no ring
	next    int     // the record the next event overwrites
	written uint64  // records ever written; those past Cap were dropped

	base  int64 // offset added to every timestamp (see Rebase)
	maxTS int64 // largest rebased timestamp recorded so far

	procNames map[int32]string

	sink   Sink
	kinds  KindSet // the kinds sink consumes
	flight *Recorder
}

// New creates a tracer holding up to size records. It returns an error
// for a non-positive size — buffer sizes typically arrive from flags, and
// a bad flag should be a diagnosed failure, not a crash.
func New(size int) (*Tracer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("trace: invalid tracer size %d (must be positive)", size)
	}
	return &Tracer{
		events:    make([]Event, size),
		procNames: map[int32]string{},
	}, nil
}

// Dropped returns the number of records lost to ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.written - uint64(t.Len())
}

// Len returns the number of records currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(min(t.written, uint64(len(t.events))))
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Rebase shifts the tracer's epoch to just after the latest recorded event
// and drops a CatMeta instant marking the boundary. Sequential simulation
// runs (each starting at virtual time zero) share one session trace without
// overlapping: call Rebase before each run.
func (t *Tracer) Rebase(label string) {
	if t == nil || t.events == nil {
		return
	}
	t.base = t.maxTS
	t.put(0, -1, CatMeta, PhaseInstant, label, 0, 0)
}

// NameProc associates a display name with a sim-proc id for the exporter's
// per-proc timelines. (Allocates; call from spawn paths, not hot paths.)
func (t *Tracer) NameProc(id int, name string) {
	if t == nil || t.events == nil {
		return
	}
	t.procNames[int32(id)] = name
}

// Begin opens a span. ts is the raw virtual time (ns); cpu is the timeline.
func (t *Tracer) Begin(ts int64, cpu int, cat Category, name string, a1, a2 int64) {
	if t != nil && t.events != nil {
		t.put(ts, cpu, cat, PhaseBegin, name, a1, a2)
	}
}

// End closes the most recent open span with this name on the cpu timeline.
func (t *Tracer) End(ts int64, cpu int, cat Category, name string) {
	if t != nil && t.events != nil {
		t.put(ts, cpu, cat, PhaseEnd, name, 0, 0)
	}
}

// Instant records a point event.
func (t *Tracer) Instant(ts int64, cpu int, cat Category, name string, a1, a2 int64) {
	if t != nil && t.events != nil {
		t.put(ts, cpu, cat, PhaseInstant, name, a1, a2)
	}
}

// put writes one untyped event into the ring. It stays out of line so
// Begin, End and Instant inline down to their nil check: with observation
// off they cost no call.
//
//go:noinline
func (t *Tracer) put(ts int64, cpu int, cat Category, ph Phase, name string, a1, a2 int64) {
	e := t.slot(ts)
	e.CPU, e.Cat, e.Ph, e.Name, e.Arg1, e.Arg2 = int32(cpu), cat, ph, name, a1, a2
}

// slot claims the next ring record for an event at raw time ts and
// returns it with TS rebased; the caller writes every other field in
// place. Building an Event and copying it in would reload freshly stored
// narrow fields as wide moves, which stalls on store forwarding.
func (t *Tracer) slot(ts int64) *Event {
	ts += t.base
	t.maxTS = max(t.maxTS, ts)
	e := &t.events[t.next]
	e.TS = ts
	if t.next++; t.next == len(t.events) {
		t.next = 0
	}
	t.written++
	return e
}

// Events returns the retained records in arrival order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	n := t.Len()
	out := make([]Event, 0, n)
	if n == len(t.events) {
		out = append(out, t.events[t.next:]...)
		out = append(out, t.events[:t.next]...)
	} else {
		out = append(out, t.events[:n]...)
	}
	return out
}

// Select returns the retained records in the given category, in order.
func (t *Tracer) Select(cat Category) []Event {
	var out []Event
	for _, ev := range t.Events() {
		if ev.Cat == cat {
			out = append(out, ev)
		}
	}
	return out
}
