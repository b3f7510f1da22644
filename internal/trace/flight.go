package trace

// The flight recorder: an always-on bounded ring of recent trace events
// plus a set of registered state providers, dumped as one self-describing
// JSON "black box" the moment something goes wrong — the watchdog
// escalates, the oracle flags a divergence, deadlock detection fires, or a
// chaos campaign fails. The point is that a CI failure ships its own
// reproducer context: the last events before the trip, the wait graph, the
// per-CPU protocol state, the in-flight shootdown DAGs, and the fault
// schedule that provoked it all land in one file.
//
// Like the tracer it wraps, the recorder charges no virtual time and
// consumes no simulation randomness, so an instrumented run is
// bit-identical to an uninstrumented one; and like the xpr ring it never
// hides truncation — the black box carries the ring's drop counter, so a
// post-mortem always states its own completeness. Every method is safe on
// a nil *Recorder.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// BlackBoxFormat identifies the black-box JSON wire format. shootdownd
// will later stream the same shape.
const BlackBoxFormat = "shootdown-blackbox/v1"

// DefaultMaxDumps bounds the black boxes one recorder writes: the first
// few trips carry all the signal, and a pathological run (every shootdown
// escalating) must not fill the disk. Suppressed trips are still counted
// and listed in Trips().
const DefaultMaxDumps = 4

// Trip records one trigger of the flight recorder, dumped or not.
type Trip struct {
	Reason    string `json:"reason"` // "watchdog", "oracle", "deadlock", "timeout", "error", "chaos"
	Detail    string `json:"detail"`
	VirtualNS int64  `json:"virtual_ns"`
	// Path is the black box written for this trip ("" when the dump was
	// suppressed by the MaxDumps cap or no directory was configured).
	Path string `json:"path,omitempty"`
	// Err reports a failed dump (I/O errors must not crash the run the
	// recorder is observing).
	Err string `json:"err,omitempty"`
}

// BlackBox is the decoded form of one dump; cmd/tlbtrace validates and
// queries it.
type BlackBox struct {
	Format    string          `json:"format"`
	Trip      int             `json:"trip"` // 0-based trip index within the session
	Reason    string          `json:"reason"`
	Detail    string          `json:"detail"`
	VirtualNS int64           `json:"virtual_ns"`
	Ring      BlackBoxRing    `json:"ring"`
	State     []BlackBoxState `json:"state"`
}

// BlackBoxRing is the event ring at trip time. Retained+Dropped together
// state the dump's completeness: Dropped > 0 means the window wrapped and
// older events are gone (counted, never silent).
type BlackBoxRing struct {
	Capacity int             `json:"capacity"`
	Retained int             `json:"retained"`
	Dropped  uint64          `json:"dropped"`
	Events   []BlackBoxEvent `json:"events"`
}

// BlackBoxEvent is one ring record in wire form.
type BlackBoxEvent struct {
	TS   int64  `json:"ts"`
	CPU  int32  `json:"cpu"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	Name string `json:"name"`
	A1   int64  `json:"a1,omitempty"`
	A2   int64  `json:"a2,omitempty"`
}

// BlackBoxState is one provider's snapshot. Data is whatever structured
// value the provider returned; providers must return only structs, slices,
// and scalars (no unordered map ranges) so dumps are byte-deterministic.
type BlackBoxState struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// provider is one registered state source.
type provider struct {
	name string
	snap func() any
}

// Recorder is the flight recorder. Build one with NewRecorder, subscribe
// it to a kernel's observation stream with Stream (experiments plumb it via
// Instrument), and call SetDir to choose where black boxes land. The
// stream trips it (Tracer.Trip) and starts each run on it (BeginRun). A
// nil *Recorder is a valid "flight recording disabled" value: every method
// is a no-op on it.
type Recorder struct {
	ring     *Tracer // nil until Ring first needs the owned ring
	ringSize int
	dir      string

	providers []provider
	trips     []Trip
	dumped    int
	maxDumps  int
}

// NewRecorder creates a recorder with an owned event ring of the given
// capacity. The ring is a plain Tracer, so making it the kernel's stream
// costs nothing extra; Stream does exactly that when no session tracer is
// given. The owned ring is built on first use, so a recorder that shares
// a session tracer (AttachRing) never allocates one.
func NewRecorder(ringSize int) (*Recorder, error) {
	if ringSize <= 0 {
		return nil, fmt.Errorf("trace: flight recorder: invalid tracer size %d (must be positive)", ringSize)
	}
	return &Recorder{ringSize: ringSize, maxDumps: DefaultMaxDumps}, nil
}

// Ring returns the recorder's event ring: the attached one, or else the
// owned one, built now if this is its first use.
func (r *Recorder) Ring() *Tracer {
	if r == nil {
		return nil
	}
	if r.ring == nil {
		r.ring, _ = New(r.ringSize) // NewRecorder checked the size
	}
	return r.ring
}

// AttachRing replaces the owned ring with an external tracer (the session
// tracer, when -trace is also in effect), so the black box's event window
// and the session trace are one buffer.
func (r *Recorder) AttachRing(t *Tracer) {
	if r == nil || t == nil {
		return
	}
	r.ring = t
}

// SetDir selects the directory black boxes are written into (created on
// first dump). With no directory, trips are still recorded and counted but
// nothing is written — tests and embedders can call Dump themselves.
func (r *Recorder) SetDir(dir string) {
	if r == nil {
		return
	}
	r.dir = dir
}

// SetMaxDumps overrides the black-box cap (0 restores the default).
func (r *Recorder) SetMaxDumps(n int) {
	if r == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxDumps
	}
	r.maxDumps = n
}

// BeginRun resets the per-kernel provider set. Each kernel build registers
// its own providers (its engine, machine, protocol, oracle are new
// objects); trips and written black boxes persist across runs so a session
// keeps one numbered sequence.
func (r *Recorder) BeginRun() {
	if r == nil {
		return
	}
	r.providers = r.providers[:0]
}

// Register adds a named state provider. Providers are snapshotted in
// registration order at trip time, so registration order is part of the
// wire format — kernel.New registers in a fixed sequence.
func (r *Recorder) Register(name string, snap func() any) {
	if r == nil || snap == nil {
		return
	}
	r.providers = append(r.providers, provider{name: name, snap: snap})
}

// Trips returns every trigger so far, dumped or suppressed.
func (r *Recorder) Trips() []Trip {
	if r == nil {
		return nil
	}
	return r.trips
}

// Dumped returns how many black boxes were written.
func (r *Recorder) Dumped() int {
	if r == nil {
		return 0
	}
	return r.dumped
}

// Trip triggers the recorder: record the trip and, if a directory is set
// and the dump cap not yet reached, write blackbox-<n>-<reason>.json.
// Failures to write are recorded on the trip, never propagated — the
// recorder must not alter the outcome of the run it is observing.
func (r *Recorder) Trip(nowNS int64, reason, detail string) {
	if r == nil {
		return
	}
	t := Trip{Reason: reason, Detail: detail, VirtualNS: nowNS}
	idx := len(r.trips)
	if r.dir != "" && r.dumped < r.maxDumps {
		path := filepath.Join(r.dir, fmt.Sprintf("blackbox-%d-%s.json", idx, reason))
		if err := r.dumpFile(path, idx, nowNS, reason, detail); err != nil {
			t.Err = err.Error()
		} else {
			t.Path = path
			r.dumped++
		}
	}
	r.trips = append(r.trips, t)
}

// dumpFile writes one black box to path, creating the directory if needed.
func (r *Recorder) dumpFile(path string, idx int, nowNS int64, reason, detail string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Dump(f, idx, nowNS, reason, detail); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Dump writes one black box to w: the ring (with its drop counter) and
// every provider's snapshot, in registration order, as indented JSON.
func (r *Recorder) Dump(w io.Writer, idx int, nowNS int64, reason, detail string) error {
	if r == nil {
		return fmt.Errorf("trace: Dump on nil flight recorder")
	}
	box := BlackBox{
		Format:    BlackBoxFormat,
		Trip:      idx,
		Reason:    reason,
		Detail:    detail,
		VirtualNS: nowNS,
	}
	ring := r.Ring()
	box.Ring = BlackBoxRing{Capacity: ring.Cap(), Retained: ring.Len(), Dropped: ring.Dropped()}
	for _, ev := range ring.Events() {
		box.Ring.Events = append(box.Ring.Events, BlackBoxEvent{
			TS: ev.TS, CPU: ev.CPU, Cat: ev.Cat.String(), Ph: ev.Ph.String(),
			Name: ev.Name, A1: ev.Arg1, A2: ev.Arg2,
		})
	}
	for _, p := range r.providers {
		data, err := json.Marshal(p.snap())
		if err != nil {
			// A provider that cannot marshal must not lose the rest of
			// the box; record the failure in its slot.
			data, _ = json.Marshal(fmt.Sprintf("marshal error: %v", err))
		}
		box.State = append(box.State, BlackBoxState{Name: p.name, Data: data})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(box)
}
