// Package snap defines the wire format for whole-simulation snapshots: an
// ordered list of per-layer JSON documents plus a digest that pins the
// byte-exact state of every deterministic layer at one engine event
// boundary.
//
// The simulator cannot capture goroutine stacks, so a snapshot is not a
// core dump: it is a *verification ladder* for replay-based restore. A
// consumer rebuilds the world from the same (config, seed), replays
// deterministically to Step, takes a fresh snapshot, and compares digests.
// Equal digests prove the replayed world is byte-identical to the one the
// snapshot was taken from — which is what time travel
// (experiments.TimeTravel) and a black box's embedded restore point rely
// on.
//
// Layer order is fixed by the producer (internal/kernel snapshots in the
// same order as the flight-recorder providers) and participates in the
// digest, so two snapshots are Equal iff every layer name and payload
// matches in sequence.
package snap

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Format identifies the snapshot wire format; bump on incompatible change.
const Format = "shootdown-snapshot/v1"

// Layer is one subsystem's state, serialized by its own Snapshot method.
type Layer struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// Snapshot is a whole-simulation state capture at one event boundary.
type Snapshot struct {
	Format string   `json:"format"`
	Step   uint64   `json:"step"`   // engine event cursor at capture
	NowNS  int64    `json:"now_ns"` // virtual time at capture
	Digest string   `json:"digest"` // FNV-1a over step, time, and layers
	Layers []*Layer `json:"layers,omitempty"`
}

// digest hashes the step, time, and every layer (name then payload) in
// order with FNV-1a 64.
func digest(step uint64, nowNS int64, layers []*Layer) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	byteIn := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	u64 := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			byteIn(byte(v >> s))
		}
	}
	u64(step)
	u64(uint64(nowNS))
	for _, l := range layers {
		for i := 0; i < len(l.Name); i++ {
			byteIn(l.Name[i])
		}
		byteIn(0)
		for _, b := range l.Data {
			byteIn(b)
		}
		byteIn(0)
	}
	return fmt.Sprintf("%016x", h)
}

// New assembles a snapshot from already-serialized layers, computing the
// digest. The layer slice is retained, not copied.
func New(step uint64, nowNS int64, layers []*Layer) *Snapshot {
	return &Snapshot{
		Format: Format,
		Step:   step,
		NowNS:  nowNS,
		Digest: digest(step, nowNS, layers),
		Layers: layers,
	}
}

// AddLayer marshals v and appends it as a named layer, recomputing the
// digest. Use for incremental assembly; New is simpler when all layers are
// in hand.
func (s *Snapshot) AddLayer(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("snap: marshal layer %q: %w", name, err)
	}
	s.Layers = append(s.Layers, &Layer{Name: name, Data: data})
	s.Digest = digest(s.Step, s.NowNS, s.Layers)
	return nil
}

// Layer returns the named layer's payload, or nil if absent.
func (s *Snapshot) Layer(name string) json.RawMessage {
	if s == nil {
		return nil
	}
	for _, l := range s.Layers {
		if l.Name == name {
			return l.Data
		}
	}
	return nil
}

// Normalize compacts each layer's payload back to the canonical form the
// digest was computed over. A carrier that pretty-prints embedded JSON
// (the flight recorder indents black boxes) changes the raw bytes without
// changing content; Normalize undoes that so Verify judges content, not
// the carrier's whitespace.
func (s *Snapshot) Normalize() error {
	for _, l := range s.Layers {
		var buf bytes.Buffer
		if err := json.Compact(&buf, l.Data); err != nil {
			return fmt.Errorf("snap: layer %q: %w", l.Name, err)
		}
		l.Data = append(json.RawMessage(nil), buf.Bytes()...)
	}
	return nil
}

// Verify recomputes the digest and reports a mismatch (corruption, or a
// hand-edited snapshot) and any malformed layer payload.
func (s *Snapshot) Verify() error {
	if s == nil {
		return fmt.Errorf("snap: nil snapshot")
	}
	if s.Format != Format {
		return fmt.Errorf("snap: format %q, want %q", s.Format, Format)
	}
	for _, l := range s.Layers {
		if l.Name == "" {
			return fmt.Errorf("snap: layer with empty name")
		}
		if !json.Valid(l.Data) {
			return fmt.Errorf("snap: layer %q payload is not valid JSON", l.Name)
		}
	}
	if d := digest(s.Step, s.NowNS, s.Layers); d != s.Digest {
		return fmt.Errorf("snap: digest mismatch: recorded %s, computed %s", s.Digest, d)
	}
	return nil
}

// Equal reports whether two snapshots pin the same state, and if not, a
// human-readable description of the first difference — the error message a
// failed restore surfaces, so it names the diverging layer.
func Equal(a, b *Snapshot) (bool, string) {
	if a == nil || b == nil {
		return a == b, "nil snapshot"
	}
	if a.Step != b.Step {
		return false, fmt.Sprintf("step %d vs %d", a.Step, b.Step)
	}
	if a.NowNS != b.NowNS {
		return false, fmt.Sprintf("now_ns %d vs %d", a.NowNS, b.NowNS)
	}
	if a.Digest == b.Digest {
		return true, ""
	}
	n := len(a.Layers)
	if len(b.Layers) < n {
		n = len(b.Layers)
	}
	for i := 0; i < n; i++ {
		la, lb := a.Layers[i], b.Layers[i]
		if la.Name != lb.Name {
			return false, fmt.Sprintf("layer %d name %q vs %q", i, la.Name, lb.Name)
		}
		if string(la.Data) != string(lb.Data) {
			return false, fmt.Sprintf("layer %q differs:\n  a: %s\n  b: %s", la.Name, la.Data, lb.Data)
		}
	}
	if len(a.Layers) != len(b.Layers) {
		return false, fmt.Sprintf("layer count %d vs %d", len(a.Layers), len(b.Layers))
	}
	return false, "digest differs but layers equal (format corruption)"
}

// Empty returns a placeholder snapshot (step 0, no layers) with a valid
// digest, for black boxes tripped before any snapshot was taken.
func Empty() *Snapshot { return New(0, 0, nil) }
