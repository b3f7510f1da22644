package hostprof

// The Sampler is hostprof's only entry point: real clock, real allocator
// statistics, the runtime's memory profile, real pprof. None of this may
// run inside the simulated packages — the simdeterminism analyzer bans
// runtime/pprof, runtime.ReadMemStats, runtime.MemProfile, and this
// package's constructor there — so a Sampler is built by package main and
// injected, exactly like the shrink campaign's wall-clock injection.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// Sampler measures phases of a host process: wall time, allocator deltas
// (runtime.ReadMemStats TotalAlloc/Mallocs), and the per-function and
// per-package attribution of every allocation the phase made. Each phase
// runs under a pprof label (phase=<name>), so externally captured CPU
// profiles slice by phase.
type Sampler struct {
	phases []PhaseCost

	profileDir string
	cpuFile    *os.File
}

// NewSampler returns an empty sampler. Host-side code only: the
// simdeterminism analyzer flags this call inside simulated packages.
func NewSampler() *Sampler { return &Sampler{} }

// Phase runs fn under the pprof label phase=<name> with every allocation
// profiled (runtime.MemProfileRate = 1, restored on return), and records
// its wall seconds, allocator deltas, and attribution tables. Wall seconds
// therefore include the cost of full allocation profiling. fn's error
// aborts the phase and is returned; the phase is still recorded so partial
// runs stay attributable.
func (s *Sampler) Phase(name string, fn func() error) error {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// A GC publishes every allocation made so far to the memory profile,
	// so the two reads bracket exactly the phase's allocations.
	runtime.GC()
	before := memProfile()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) {
		err = fn()
	})
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	sites, pkgs := attribute(before, memProfile())
	pc := PhaseCost{
		Name:          name,
		WallSeconds:   wall.Seconds(),
		MeasuredBytes: int64(ms1.TotalAlloc - ms0.TotalAlloc),
		Mallocs:       int64(ms1.Mallocs - ms0.Mallocs),
		Sites:         sites,
		Packages:      pkgs,
	}
	for _, p := range pkgs {
		pc.CountedBytes += p.Bytes
		pc.CountedOps += p.Count
	}
	if err != nil {
		pc.Err = err.Error()
	}
	s.phases = append(s.phases, pc)
	return err
}

// Phases returns the recorded phases in execution order.
func (s *Sampler) Phases() []PhaseCost { return s.phases }

// StartProfiles begins a CPU profile into dir/cpu.pprof; StopProfiles
// ends it and writes dir/heap.pprof. Optional — a sampler without
// profiles still measures phases.
func (s *Sampler) StartProfiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("hostprof: start cpu profile: %w", err)
	}
	s.profileDir, s.cpuFile = dir, f
	return nil
}

// StopProfiles stops the CPU profile and writes the heap profile. No-op
// when StartProfiles was not called.
func (s *Sampler) StopProfiles() error {
	if s.cpuFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := s.cpuFile.Close()
	s.cpuFile = nil
	hf, herr := os.Create(filepath.Join(s.profileDir, "heap.pprof"))
	if herr != nil {
		if err == nil {
			err = herr
		}
		return err
	}
	if werr := pprof.WriteHeapProfile(hf); werr != nil && err == nil {
		err = werr
	}
	if cerr := hf.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Report seals the sampler into a host-cost/v1 artifact. headline names
// the phase coverage is computed on (attributed bytes / measured bytes);
// it must be one of the recorded phases.
func (s *Sampler) Report(headline string) (*Report, error) {
	if len(s.phases) == 0 {
		return nil, fmt.Errorf("hostprof: no phases recorded")
	}
	r := &Report{
		Format: Format,
		Provenance: Provenance{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Headline: headline,
		Phases:   s.phases,
	}
	hp := r.HeadlinePhase()
	if hp == nil {
		return nil, fmt.Errorf("hostprof: headline phase %q not recorded", headline)
	}
	r.CoveragePct = hp.coverage()
	return r, nil
}
