// Package trace is the full-fidelity observability layer for the simulated
// multiprocessor: a typed span/instant tracer that every layer of the stack
// (sim engine, machine, shootdown protocol, TLBs, kernel) logs into, with a
// Chrome trace-event exporter for timeline inspection in chrome://tracing or
// Perfetto, and a Prometheus-style text metrics snapshot.
//
// It generalizes the xpr ring-buffer design (Section 6 of the paper): fixed
// pre-allocated records, a free-running virtual timestamp per record, and no
// locking (the discrete-event engine serializes all producers). Two properties
// are load-bearing:
//
//  1. Recording is zero-allocation and zero-virtual-time on the hot path:
//     logging writes one record into a pre-allocated ring and never charges
//     simulated time or consumes simulation randomness, so enabling tracing
//     cannot perturb virtual-time results (the §6.1 guarantee, enforced by a
//     determinism test).
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
// become the "cat" field of exported Chrome trace events and may be
// selectively disabled to control trace volume.
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
	numCategories
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

// Tracer is a fixed-capacity ring of events. The zero value is unusable;
// call New. A nil *Tracer is a valid "tracing disabled" value: every method
// is a no-op on it.
type Tracer struct {
	events   []Event
	next     int
	count    int
	dropped  uint64
	enabled  bool
	disabled [numCategories]bool

	base  int64 // offset added to every timestamp (see Rebase)
	maxTS int64 // largest rebased timestamp recorded so far

	procNames map[int32]string
}

// New creates a tracer holding up to size records, initially enabled with
// every category on. It returns an error for a non-positive size — buffer
// sizes typically arrive from flags, and a bad flag should be a diagnosed
// failure, not a crash.
func New(size int) (*Tracer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("trace: invalid tracer size %d (must be positive)", size)
	}
	return &Tracer{
		events:    make([]Event, size),
		enabled:   true,
		procNames: map[int32]string{},
	}, nil
}

// On enables recording.
func (t *Tracer) On() {
	if t == nil {
		return
	}
	t.enabled = true
}

// Off disables recording.
func (t *Tracer) Off() {
	if t == nil {
		return
	}
	t.enabled = false
}

// Enabled reports whether the tracer is recording. A nil tracer is not.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// SetCategory enables or disables one category.
func (t *Tracer) SetCategory(c Category, on bool) {
	if t == nil || c >= numCategories {
		return
	}
	t.disabled[c] = !on
}

// Dropped returns the number of records lost to ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Len returns the number of records currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.count
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
	if t == nil {
		return
	}
	t.base = t.maxTS
	t.log(Event{TS: t.base, CPU: -1, Cat: CatMeta, Ph: PhaseInstant, Name: label})
}

// NameProc associates a display name with a sim-proc id for the exporter's
// per-proc timelines. (Allocates; call from spawn paths, not hot paths.)
func (t *Tracer) NameProc(id int, name string) {
	if t == nil {
		return
	}
	t.procNames[int32(id)] = name
}

// Begin opens a span. ts is the raw virtual time (ns); cpu is the timeline.
func (t *Tracer) Begin(ts int64, cpu int, cat Category, name string, a1, a2 int64) {
	if t == nil || !t.enabled || t.disabled[cat] {
		return
	}
	t.log(Event{TS: ts + t.base, CPU: int32(cpu), Cat: cat, Ph: PhaseBegin, Name: name, Arg1: a1, Arg2: a2})
}

// End closes the most recent open span with this name on the cpu timeline.
func (t *Tracer) End(ts int64, cpu int, cat Category, name string) {
	if t == nil || !t.enabled || t.disabled[cat] {
		return
	}
	t.log(Event{TS: ts + t.base, CPU: int32(cpu), Cat: cat, Ph: PhaseEnd, Name: name})
}

// Instant records a point event.
func (t *Tracer) Instant(ts int64, cpu int, cat Category, name string, a1, a2 int64) {
	if t == nil || !t.enabled || t.disabled[cat] {
		return
	}
	t.log(Event{TS: ts + t.base, CPU: int32(cpu), Cat: cat, Ph: PhaseInstant, Name: name, Arg1: a1, Arg2: a2})
}

// log writes one record into the ring, counting (not hiding) overwrites.
func (t *Tracer) log(ev Event) {
	if ev.TS > t.maxTS {
		t.maxTS = ev.TS
	}
	t.events[t.next] = ev
	t.next = (t.next + 1) % len(t.events)
	if t.count < len(t.events) {
		t.count++
	} else {
		t.dropped++
	}
}

// Events returns the retained records in arrival order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.count)
	if t.count == len(t.events) {
		out = append(out, t.events[t.next:]...)
		out = append(out, t.events[:t.next]...)
	} else {
		out = append(out, t.events[:t.count]...)
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
