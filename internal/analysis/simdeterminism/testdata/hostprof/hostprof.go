// Package hostprof mirrors internal/hostprof's Sampler for the fixtures:
// its constructor is banned in simulated code. The ban matches the
// package by path suffix, so this lint.test/hostprof mirror triggers it
// exactly like the real package.
package hostprof

// Sampler reads the host heap and its allocation profile.
type Sampler struct{}

// NewSampler constructs a sampler. Only host-side code may call this.
func NewSampler() *Sampler { return &Sampler{} }

// Phase runs fn as one measured host-cost phase.
func (s *Sampler) Phase(name string, fn func() error) error { return fn() }
