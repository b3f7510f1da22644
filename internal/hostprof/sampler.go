package hostprof

// The Sampler is hostprof's only entry point: real allocator statistics
// and the runtime's memory profile. Neither may be read inside the
// simulated packages — the simdeterminism analyzer bans
// runtime.ReadMemStats, runtime.MemProfile and this package's constructor
// there — so only host-side code (a test, package main) builds one.

import (
	"runtime"
	"sync"
)

// SiteCost is one attribution row within a phase: the allocations charged
// to Site (a function, "shootdown/internal/mem.New" or, for stacks with no
// module frame, "runtime.malg") or, in a package table, to functions in
// Site (a package path).
type SiteCost struct {
	Site    string
	Package string
	Count   int64
	Bytes   int64
}

// PhaseCost is one measured phase: the allocator's byte delta and the
// attribution tables from the runtime's memory profile.
type PhaseCost struct {
	Name string
	// MeasuredBytes is the runtime.ReadMemStats TotalAlloc delta across
	// the phase.
	MeasuredBytes int64
	// CountedBytes is the bytes the memory profile attributed: the sum
	// of Sites and of Packages.
	CountedBytes int64
	Sites        []SiteCost
	Packages     []SiteCost
}

// Sampler measures phases of a host process: the allocator's byte delta
// (runtime.ReadMemStats TotalAlloc) and the per-function and per-package
// attribution of every allocation the phase made.
type Sampler struct {
	phases []PhaseCost
}

// NewSampler returns an empty sampler, after sparing the process the OS
// threads its phases would otherwise start (spareThreads). Host-side code
// only: the simdeterminism analyzer flags this call inside simulated
// packages.
func NewSampler() *Sampler {
	spareThreads()
	return &Sampler{}
}

// spareThreads leaves the process more idle OS threads than it has Ps.
// The runtime starts a thread whenever it must wake a P and finds no idle
// one, and a young process does so while a GC or an allocator read
// restarts the world. The new thread's bookkeeping, about 5 KB on a stack
// that names no caller, then lands between a profile read and an
// allocator read, in one of a phase's two counts only: enough to break a
// small phase's 1% band. Each goroutine here keeps its thread locked
// until all have started, so the runtime must start one for each;
// unlocked, the threads stay parked for reuse.
func spareThreads() {
	n := runtime.GOMAXPROCS(0) + 1
	var started, done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			started.Done()
			<-release
		}()
	}
	started.Wait()
	close(release)
	done.Wait()
}

// Phase runs fn with every allocation profiled (runtime.MemProfileRate =
// 1, restored on return) and records its allocator delta and attribution
// tables. fn's error is returned; the phase is still recorded, so a
// partial run stays attributable.
func (s *Sampler) Phase(name string, fn func() error) error {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// A GC publishes every allocation made so far to the memory profile,
	// so the two reads bracket exactly the phase's allocations.
	runtime.GC()
	before := memProfile()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err := fn()
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	sites, pkgs := attribute(before, memProfile())
	pc := PhaseCost{
		Name:          name,
		MeasuredBytes: int64(ms1.TotalAlloc - ms0.TotalAlloc),
		Sites:         sites,
		Packages:      pkgs,
	}
	for _, p := range pkgs {
		pc.CountedBytes += p.Bytes
	}
	s.phases = append(s.phases, pc)
	return err
}

// Phases returns the recorded phases in execution order.
func (s *Sampler) Phases() []PhaseCost { return s.phases }
