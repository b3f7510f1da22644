// Package xpr is the in-kernel circular trace buffer used to instrument the
// shootdown code, modeled on the Mach xpr package the paper's measurements
// are built on (Section 6): each monitored event contributes a record with
// data arguments, an event identifier, a processor number, and a timestamp
// from a free-running microsecond-resolution counter.
//
// The buffer is sized by the caller so it "never overflows during test
// runs"; if it does wrap, the oldest records are lost and Dropped counts them.
// Storage grows on demand up to that size, so a generous bound costs only
// the records actually logged.
package xpr

import (
	"fmt"

	"shootdown/internal/sim"
)

// EventID identifies the kind of a trace record.
type EventID int

// Event identifiers used by the shootdown instrumentation.
const (
	// EvInitiator records one shootdown from the initiator's side:
	// Args = [kernel(0/1), pages, processors shot at, elapsed ns].
	EvInitiator EventID = iota + 1
	// EvResponder records one responder interrupt-service elapsed time:
	// Args = [elapsed ns, 0, 0, 0].
	EvResponder
)

func (id EventID) String() string {
	switch id {
	case EvInitiator:
		return "initiator"
	case EvResponder:
		return "responder"
	default:
		return fmt.Sprintf("event(%d)", int(id))
	}
}

// Event is one trace record.
type Event struct {
	Time sim.Time
	CPU  int
	ID   EventID
	Args [4]int64
}

// Initiator decodes an EvInitiator record.
func (e Event) Initiator() (kernel bool, pages, processors int, elapsed sim.Time) {
	return e.Args[0] != 0, int(e.Args[1]), int(e.Args[2]), sim.Time(e.Args[3])
}

// Responder decodes an EvResponder record.
func (e Event) Responder() (elapsed sim.Time) { return sim.Time(e.Args[0]) }

// Buffer is a circular trace buffer. events grows by append until it
// holds size records; from then on each record overwrites the oldest.
type Buffer struct {
	events  []Event
	size    int
	next    int // index the next record lands at once events is full
	dropped uint64
	enabled bool

	// SampleCPUs, when non-nil, restricts EvResponder records to the
	// listed CPUs, mirroring the paper's practice of collecting responder
	// data on only 5 of 16 processors to avoid lock contention in xpr.
	SampleCPUs map[int]bool
}

// New creates a buffer holding up to size records, initially enabled. It
// allocates nothing until the first record is logged.
func New(size int) *Buffer {
	if size <= 0 {
		panic(fmt.Sprintf("xpr: invalid buffer size %d", size))
	}
	return &Buffer{size: size, enabled: true}
}

// Off disables recording.
func (b *Buffer) Off() { b.enabled = false }

// Dropped returns the number of records lost to wraparound. Experiment
// output surfaces this so a truncated measurement is never mistaken for a
// complete one.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// Len returns the number of records currently held.
func (b *Buffer) Len() int { return len(b.events) }

// Log appends a record if recording is enabled. EvResponder records are
// dropped for CPUs outside SampleCPUs when sampling is configured.
func (b *Buffer) Log(ev Event) {
	if !b.enabled {
		return
	}
	if ev.ID == EvResponder && b.SampleCPUs != nil && !b.SampleCPUs[ev.CPU] {
		return
	}
	if len(b.events) < b.size {
		b.events = append(b.events, ev)
		return
	}
	b.events[b.next] = ev
	b.next = (b.next + 1) % b.size
	b.dropped++
}

// LogInitiator records one initiator-side shootdown.
func (b *Buffer) LogInitiator(t sim.Time, cpu int, kernel bool, pages, processors int, elapsed sim.Time) {
	k := int64(0)
	if kernel {
		k = 1
	}
	b.Log(Event{Time: t, CPU: cpu, ID: EvInitiator,
		Args: [4]int64{k, int64(pages), int64(processors), int64(elapsed)}})
}

// LogResponder records one responder interrupt-service time.
func (b *Buffer) LogResponder(t sim.Time, cpu int, elapsed sim.Time) {
	b.Log(Event{Time: t, CPU: cpu, ID: EvResponder, Args: [4]int64{int64(elapsed)}})
}

// Events returns the records in arrival order.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.next:]...)
	return append(out, b.events[:b.next]...)
}

// Select returns the records with the given ID, in arrival order.
func (b *Buffer) Select(id EventID) []Event {
	var out []Event
	for _, ev := range b.Events() {
		if ev.ID == id {
			out = append(out, ev)
		}
	}
	return out
}

// InitiatorTimes extracts elapsed times (µs) from initiator records,
// split by kernel/user pmap.
func (b *Buffer) InitiatorTimes() (kernelUS, userUS []float64) {
	for _, ev := range b.Select(EvInitiator) {
		kernel, _, _, elapsed := ev.Initiator()
		if kernel {
			kernelUS = append(kernelUS, elapsed.Microseconds())
		} else {
			userUS = append(userUS, elapsed.Microseconds())
		}
	}
	return
}

// ResponderTimes extracts elapsed times (µs) from responder records.
func (b *Buffer) ResponderTimes() []float64 {
	var out []float64
	for _, ev := range b.Select(EvResponder) {
		out = append(out, ev.Responder().Microseconds())
	}
	return out
}
