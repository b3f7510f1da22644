// Package trace is an observation package: every function declared here
// is a hook root. Writes to its own buffers are fine; reaching back into
// the engine is not.
package trace

import (
	"time"

	"lint.test/sim"
)

type Recorder struct{ entries []any }

// Register stores a provider; mutating the recorder's own state is
// allowed.
func (r *Recorder) Register(name string, snap func() any) {
	r.entries = append(r.entries, snap)
}

// Bad perturbs the engine from inside the observation layer.
func Bad(e *sim.Engine) {
	e.Stop() // want `Bad must not write simulated state: writes sim\.Engine\.stopped \(via .*Stop\)`
}

// Peek consumes randomness from a seeded simulation stream.
func Peek(e *sim.Engine) int {
	return e.Jitter() // want `Peek must not consume randomness: draws from sim\.Engine\.rng \(via .*Jitter\)`
}

// Stamp reads the host clock — banned even in the observation layer,
// since recorded artifacts must be bit-identical across runs.
func Stamp() int64 {
	return time.Now().UnixNano() // want `Stamp must not read the host clock: calls time\.Now`
}
