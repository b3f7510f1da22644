package main

import (
	"errors"
	"flag"
	"fmt"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/oracle"
	"shootdown/internal/pmap"
	"shootdown/internal/profile"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
	"shootdown/internal/vm"
	"shootdown/internal/workload"
	"shootdown/internal/xpr"
)

// calls counts the lower rungs one rung's operations invoke: engine steps,
// TLB probes and inserts, and page-table walks. A rung's self cost is its
// time minus these counts times the lower rungs' costs (see explainTerms).
type calls struct {
	Steps   float64 `json:"steps"`
	Probes  float64 `json:"probes"`
	Inserts float64 `json:"inserts"`
	Walks   float64 `json:"walks"`
}

// rung is one microbenchmark of the layer ladder. fn runs b.N operations
// through a layer's public functions and returns the lower-rung calls they
// made in total.
type rung struct {
	name string  // metric name; its suffix is the unit
	per  float64 // nanoseconds per reported unit
	// benchtime overrides the default measuring time for rungs whose
	// operations are slow or leave per-operation garbage behind.
	benchtime string
	fn        func(b *testing.B) (calls, error)
}

// rungResult is one measured rung: the cost of one operation in the
// rung's unit, its allocations, and its lower-rung calls per operation.
type rungResult struct {
	Value  float64 `json:"value"`
	Allocs float64 `json:"allocs"`
	N      int     `json:"n"`
	Calls  calls   `json:"calls"`
}

var ladder = []rung{
	{"sim.switch_ns", 1, "", switchRung(0, false)},
	{"sim.switch_q16_ns", 1, "", switchRung(16, true)},
	{"sim.switch_q64_ns", 1, "", switchRung(64, true)},
	{"sim.spawn_ns", 1, "", spawnRung},
	{"kernel.build_us", 1e3, "21x", buildRung},
	{"tlb.probe_ns", 1, "", probeRung},
	{"tlb.insert_ns", 1, "", insertRung},
	{"ptable.walk_ns", 1, "", walkRung},
	{"machine.read_hit_ns", 1, "", readRung(false)},
	{"machine.read_miss_ns", 1, "", readRung(true)},
	{"core.sync_k1_us", 1e3, "", syncRung(1)},
	{"core.sync_k4_us", 1e3, "", syncRung(4)},
	{"core.sync_k15_us", 1e3, "", syncRung(15)},
	{"pmap.remove_64p_us", 1e3, "", pmapRung(false)},
	{"pmap.protect_64p_us", 1e3, "", pmapRung(true)},
	{"vm.cow_fault_us", 1e3, "", cowRung},
	{"xpr.log_ns", 1, "", xprRung},
	{"oracle.use_check_ns", 1, "", oracleRung},
	{"trace.hook_ns", 1, "", traceRung},
	{"profile.hook_ns", 1, "", profileRung},
	{"flight.hook_ns", 1, "", flightRung},
	{"snap.capture_us", 1e3, "", captureRung},
	{"snap.restore_ms", 1e6, "10x", restoreRung},
}

// ladderResult is what the ladder child measures: every rung, and the
// reference loop's time in that child (see refLoop), so that explain can
// price the rungs at the host speed the samples ran at.
type ladderResult struct {
	Rungs map[string]rungResult `json:"rungs"`
	RefS  float64               `json:"ref_s"`
}

// ladderRounds is how many times the ladder is measured, round-robin over
// its rungs. Each rung reports its fastest round, and RefS the fastest
// reference loop, for the reason wall_s is the fastest sample: other
// tenants of a shared host only ever slow a rung down. Rounds also keep
// one slow moment from landing on one rung only, which matters because a
// self cost is the difference of two rungs' times.
const ladderRounds = 5

// runLadder measures every rung with testing.Benchmark. tiny runs each
// rung once, which is enough to check names but measures nothing.
func runLadder(tiny bool) (ladderResult, error) {
	testing.Init()
	rounds := ladderRounds
	if tiny {
		rounds = 1
	}
	out := ladderResult{Rungs: map[string]rungResult{}, RefS: refLoop()}
	for i := 0; i < rounds; i++ {
		for _, r := range ladder {
			res, err := measureRung(r, tiny)
			if err != nil {
				return out, fmt.Errorf("ladder %s: %w", r.name, err)
			}
			if old, ok := out.Rungs[r.name]; !ok || res.Value < old.Value {
				out.Rungs[r.name] = res
			}
		}
		out.RefS = min(out.RefS, refLoop())
	}
	return out, nil
}

// measureRung runs one rung once under testing.Benchmark.
func measureRung(r rung, tiny bool) (rungResult, error) {
	bt := r.benchtime
	if bt == "" {
		bt = "100ms"
	}
	if tiny {
		bt = "1x"
	}
	if err := flag.Set("test.benchtime", bt); err != nil {
		return rungResult{}, err
	}
	var c calls
	var err error
	res := testing.Benchmark(func(b *testing.B) { c, err = r.fn(b) })
	if err == nil && res.N == 0 {
		err = errors.New("no iterations ran")
	}
	if err != nil {
		return rungResult{}, err
	}
	n := float64(res.N)
	return rungResult{
		Value:  float64(res.T.Nanoseconds()) / n / r.per,
		Allocs: float64(res.MemAllocs) / n,
		N:      res.N,
		Calls:  calls{Steps: c.Steps / n, Probes: c.Probes / n, Inserts: c.Inserts / n, Walks: c.Walks / n},
	}, nil
}

// switchRung is the engine handoff: one proc sleeping one tick per
// operation. queued sleepers sit in the run heap meanwhile; with chaos the
// engine also scans them for ties on every pop, as every seeded workload's
// engine does.
func switchRung(queued int, chaos bool) func(b *testing.B) (calls, error) {
	return func(b *testing.B) (calls, error) {
		eng := queuedEngine(queued, chaos)
		eng.Spawn("ticker", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(1)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		err := eng.Run()
		return calls{Steps: float64(eng.StepCount())}, err
	}
}

// workloadQueue is how many procs a workload world's run heap holds: about
// one per CPU of its 16.
const workloadQueue = 16

// queuedEngine is an engine with queued sleepers in its run heap, and with
// chaos, scanning them for ties on every pop. The composite rungs run on
// queuedEngine(workloadQueue, true), the state every workload's engine
// runs in, so their steps cost what sim.switch_q16_ns prices them at: the
// price explain both charges the workloads' steps at and subtracts from
// the rungs.
func queuedEngine(queued int, chaos bool) *sim.Engine {
	var opts []sim.Option
	if chaos {
		opts = append(opts, sim.WithChaos(1))
	}
	eng := sim.New(opts...)
	for i := 0; i < queued; i++ {
		eng.Spawn("sleeper", func(p *sim.Proc) { p.Sleep(1 << 50) })
	}
	return eng
}

// spawnRung creates procs that return at once, run to completion in
// batches so their goroutines are reclaimed.
func spawnRung(b *testing.B) (calls, error) {
	var c calls
	for done := 0; done < b.N; {
		n := min(1000, b.N-done)
		eng := sim.New()
		for i := 0; i < n; i++ {
			eng.Spawn("p", func(*sim.Proc) {})
		}
		if err := eng.Run(); err != nil {
			return c, err
		}
		c.Steps += float64(eng.StepCount())
		done += n
	}
	return c, nil
}

// buildRung builds one Fig. 2-shaped world per operation.
func buildRung(b *testing.B) (calls, error) {
	for i := 0; i < b.N; i++ {
		if err := testerShape(1, fullSize); err != nil {
			return calls{}, err
		}
	}
	return calls{}, nil
}

func probeRung(b *testing.B) (calls, error) {
	t := tlb.New(tlb.Config{Size: 64})
	for i := 0; i < 64; i++ {
		t.Insert(ptable.VAddr(i)<<mem.PageShift, tlb.ASIDNone, ptable.Make(mem.Frame(i), true))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Probe(ptable.VAddr(i%64)<<mem.PageShift, tlb.ASIDNone)
	}
	return calls{}, nil
}

// insertRung cycles 256 pages through a 64-entry TLB, so most inserts
// evict.
func insertRung(b *testing.B) (calls, error) {
	t := tlb.New(tlb.Config{Size: 64})
	for i := 0; i < b.N; i++ {
		t.Insert(ptable.VAddr(i%256)<<mem.PageShift, tlb.ASIDNone, ptable.Make(mem.Frame(i%256), true))
	}
	return calls{}, nil
}

func walkRung(b *testing.B) (calls, error) {
	tab, err := ptable.New(mem.New(64))
	if err != nil {
		return calls{}, err
	}
	for i := 0; i < 16; i++ {
		if err := tab.Enter(ptable.VAddr(i)<<mem.PageShift, ptable.Make(mem.Frame(i), true)); err != nil {
			return calls{}, err
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(ptable.VAddr(i%16) << mem.PageShift)
	}
	return calls{Walks: float64(tab.Walks)}, nil
}

// readRung is one simulated load through an Exec: the TLB probe, the
// protection check and the data fetch, plus (miss) the hardware reload.
func readRung(miss bool) func(b *testing.B) (calls, error) {
	return func(b *testing.B) (calls, error) {
		eng := queuedEngine(workloadQueue, true)
		m := machine.New(eng, machine.Options{NumCPUs: 1, MemFrames: 64, Seed: 1})
		tab, err := ptable.New(m.Phys)
		if err != nil {
			return calls{}, err
		}
		m.SetKernelTable(tab)
		va := machine.KernelBase + 0x1000
		f, err := m.Phys.AllocFrame()
		if err != nil {
			return calls{}, err
		}
		if err := tab.Enter(va, ptable.Make(f, true)); err != nil {
			return calls{}, err
		}
		var c calls
		var runErr error
		eng.Spawn("reader", func(p *sim.Proc) {
			ex := m.Attach(p, 0)
			defer ex.Detach()
			t := m.CPU(0).TLB
			w := counter(eng, []*tlb.TLB{t}, tab)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if miss {
					t.Flush()
				}
				if _, fault := ex.Read(va); fault != nil {
					runErr = fault
					return
				}
			}
			b.StopTimer()
			c = w()
		})
		if err := eng.Run(); err != nil {
			return c, err
		}
		return c, runErr
	}
}

// counter snapshots the lower-rung counters and returns a function that
// reports their growth since.
func counter(eng *sim.Engine, tlbs []*tlb.TLB, tabs ...*ptable.Table) func() calls {
	read := func() calls {
		c := calls{Steps: float64(eng.StepCount())}
		for _, t := range tlbs {
			s := t.Stats()
			c.Probes += float64(s.Hits + s.Misses)
			c.Inserts += float64(s.Inserts)
		}
		for _, t := range tabs {
			c.Walks += float64(t.Walks)
		}
		return c
	}
	c0 := read()
	return func() calls {
		c := read()
		return calls{c.Steps - c0.Steps, c.Probes - c0.Probes, c.Inserts - c0.Inserts, c.Walks - c0.Walks}
	}
}

func (c calls) plus(d calls) calls {
	return calls{c.Steps + d.Steps, c.Probes + d.Probes, c.Inserts + d.Inserts, c.Walks + d.Walks}
}

// bareWorld is a machine, the Mach shootdown and the pmap module wired
// together without the kernel scheduler: rung procs play pinned threads.
type bareWorld struct {
	eng *sim.Engine
	m   *machine.Machine
	sd  *core.Shootdown
	sys *pmap.System
}

func newBareWorld(ncpu int) (*bareWorld, error) {
	eng := queuedEngine(workloadQueue, true)
	m := machine.New(eng, machine.Options{NumCPUs: ncpu, MemFrames: 4096, Seed: 1})
	sd := core.New(m, core.Options{})
	sys, err := pmap.NewSystem(m, sd)
	if err != nil {
		return nil, err
	}
	return &bareWorld{eng: eng, m: m, sd: sd, sys: sys}, nil
}

func (w *bareWorld) tlbs() []*tlb.TLB {
	out := make([]*tlb.TLB, w.m.NumCPUs())
	for i := range out {
		out[i] = w.m.CPU(i).TLB
	}
	return out
}

// syncRung is one shootdown on a bare 16-CPU machine: CPU 0 write-protects
// one kernel page while k responders spin with interrupts enabled and the
// other CPUs are idle, so they only get the action queued. The pmap lock
// the protect holds is what keeps responders stalled until the update is
// done, so the shootdown goes through the pmap module's public entry.
func syncRung(k int) func(b *testing.B) (calls, error) {
	return func(b *testing.B) (calls, error) {
		const ncpu = 16
		w, err := newBareWorld(ncpu)
		if err != nil {
			return calls{}, err
		}
		frame, err := w.m.Phys.AllocFrame()
		if err != nil {
			return calls{}, err
		}
		done := false
		for cpu := 1; cpu < ncpu; cpu++ {
			cpu := cpu
			w.eng.Spawn(fmt.Sprintf("cpu%d", cpu), func(p *sim.Proc) {
				ex := w.m.Attach(p, cpu)
				defer ex.Detach()
				if cpu > k {
					w.sd.GoIdle(ex)
					return
				}
				for !done {
					ex.Advance(200_000)
				}
			})
		}
		var c calls
		var runErr error
		w.eng.Spawn("initiator", func(p *sim.Proc) {
			ex := w.m.Attach(p, 0)
			defer ex.Detach()
			defer func() { done = true }()
			ex.Advance(1_000_000) // responders spinning, idle CPUs idle
			kp := w.sys.Kernel
			va := machine.KernelBase + 0x1000
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				if runErr = kp.Enter(ex, va, frame, pmap.ProtRW); runErr != nil {
					return
				}
				cnt := counter(w.eng, w.tlbs(), kp.Table)
				b.StartTimer()
				kp.Protect(ex, va, va+mem.PageSize, pmap.ProtRead)
				b.StopTimer()
				c = c.plus(cnt())
			}
		})
		if err := w.eng.Run(); err != nil {
			return c, err
		}
		return c, runErr
	}
}

// pmapRung removes (or write-protects) 64 mapped pages of a user pmap
// active on its one CPU, so each operation includes a local shootdown.
func pmapRung(protect bool) func(b *testing.B) (calls, error) {
	return func(b *testing.B) (calls, error) {
		w, err := newBareWorld(1)
		if err != nil {
			return calls{}, err
		}
		pm, err := w.sys.NewUser()
		if err != nil {
			return calls{}, err
		}
		frames := make([]mem.Frame, 64)
		for i := range frames {
			if frames[i], err = w.m.Phys.AllocFrame(); err != nil {
				return calls{}, err
			}
		}
		var c calls
		var runErr error
		w.eng.Spawn("pmap", func(p *sim.Proc) {
			ex := w.m.Attach(p, 0)
			defer ex.Detach()
			pm.Activate(ex, 0)
			start := ptable.VAddr(0x10000)
			end := start + ptable.VAddr(len(frames)*mem.PageSize)
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				for j, f := range frames {
					if runErr = pm.Enter(ex, start+ptable.VAddr(j*mem.PageSize), f, pmap.ProtRW); runErr != nil {
						return
					}
				}
				cnt := counter(w.eng, w.tlbs(), pm.Table)
				b.StartTimer()
				if protect {
					pm.Protect(ex, start, end, pmap.ProtRead)
				} else {
					pm.Remove(ex, start, end)
				}
				b.StopTimer()
				c = c.plus(cnt())
			}
		})
		if err := w.eng.Run(); err != nil {
			return c, err
		}
		return c, runErr
	}
}

// cowRung breaks copy-on-write on pages of a forked address space: one
// write fault, one page copy and the retried store per operation.
func cowRung(b *testing.B) (calls, error) {
	w, err := newBareWorld(1)
	if err != nil {
		return calls{}, err
	}
	mp, err := vm.NewSystem(w.m, w.sys).NewUserMap()
	if err != nil {
		return calls{}, err
	}
	write := func(ex *machine.Exec, va ptable.VAddr) error {
		for try := 0; try < 8; try++ {
			f := ex.Write(va, 1)
			if f == nil {
				return nil
			}
			if err := mp.Fault(ex, f.VA, f.Write); err != nil {
				return err
			}
		}
		return fmt.Errorf("fault loop at %#x", va)
	}
	var c calls
	var runErr error
	w.eng.Spawn("cow", func(p *sim.Proc) {
		ex := w.m.Attach(p, 0)
		defer ex.Detach()
		mp.Pmap.Activate(ex, 0)
		b.StopTimer()
		for done := 0; done < b.N && runErr == nil; {
			n := min(64, b.N-done)
			runErr = func() error {
				size := uint32(n * mem.PageSize)
				va, err := mp.Allocate(ex, 0, size, true)
				if err != nil {
					return err
				}
				for j := 0; j < n; j++ {
					if err := write(ex, va+ptable.VAddr(j*mem.PageSize)); err != nil {
						return err
					}
				}
				child, err := mp.Fork(ex)
				if err != nil {
					return err
				}
				cnt := counter(w.eng, w.tlbs(), mp.Pmap.Table)
				b.StartTimer()
				for j := 0; j < n; j++ {
					if err := write(ex, va+ptable.VAddr(j*mem.PageSize)); err != nil {
						return err
					}
				}
				b.StopTimer()
				c = c.plus(cnt())
				child.Destroy(ex)
				return mp.Deallocate(ex, va, va+ptable.VAddr(size))
			}()
			done += n
		}
	})
	if err := w.eng.Run(); err != nil {
		return c, err
	}
	return c, runErr
}

func xprRung(b *testing.B) (calls, error) {
	buf := xpr.New(1 << 16)
	for i := 0; i < b.N; i++ {
		buf.LogResponder(sim.Time(i), 0, 1000)
	}
	return calls{}, nil
}

// oracleRung checks one cached translation against the oracle's shadow.
func oracleRung(b *testing.B) (calls, error) {
	m := machine.New(sim.New(), machine.Options{NumCPUs: 1, MemFrames: 64, Seed: 1})
	tab, err := ptable.New(m.Phys)
	if err != nil {
		return calls{}, err
	}
	o := oracle.New(m)
	o.Track(tab, 1, false)
	va := ptable.VAddr(0x10000)
	f, err := m.Phys.AllocFrame()
	if err != nil {
		return calls{}, err
	}
	pte := ptable.Make(f, true)
	if err := tab.Enter(va, pte); err != nil {
		return calls{}, err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.OnTLBUse(0, va, 1, pte, tab, false)
	}
	return calls{}, nil
}

func traceRung(b *testing.B) (calls, error) {
	tr, err := trace.New(1 << 16)
	if err != nil {
		return calls{}, err
	}
	for i := 0; i < b.N; i++ {
		tr.Instant(int64(i), 0, trace.CatSim, "run", 0, 0)
	}
	return calls{}, nil
}

// profileRung alternates a phase push and pop on one CPU.
func profileRung(b *testing.B) (calls, error) {
	p := profile.New()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			p.Push(int64(i), 0, profile.PhaseSpinBarrier)
		} else {
			p.Pop(int64(i), 0, profile.PhaseSpinBarrier)
		}
	}
	return calls{}, nil
}

// flightRung logs into the flight recorder's own ring, the per-event cost
// of an armed recorder when no session tracer is attached.
func flightRung(b *testing.B) (calls, error) {
	fr, err := trace.NewRecorder(1 << 16)
	if err != nil {
		return calls{}, err
	}
	ring := fr.Ring()
	for i := 0; i < b.N; i++ {
		ring.Instant(int64(i), 0, trace.CatSim, "run", 0, 0)
	}
	return calls{}, nil
}

// snapStep is the event boundary the snapshot rungs pause at.
const snapStep = 1000

// pausedWorld builds a small churn world paused mid-run at snapStep.
func pausedWorld() (*kernel.Kernel, error) {
	k, err := workload.StartChurn(workload.AppConfig{NCPUs: 4, Seed: 1, Scale: 0.5, Oracle: true})
	if err != nil {
		return nil, err
	}
	if err := k.RunToStep(snapStep); err != nil {
		return nil, err
	}
	if k.Eng.Stopped() || k.Eng.StepCount() < snapStep {
		return nil, fmt.Errorf("world ended before step %d", snapStep)
	}
	return k, nil
}

func captureRung(b *testing.B) (calls, error) {
	w, err := pausedWorld()
	if err != nil {
		return calls{}, err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Snapshot(); err != nil {
			return calls{}, err
		}
	}
	return calls{}, nil
}

// restoreRung is replay-based restore: rebuild the world, replay it to the
// snapshot's step and check the digest.
func restoreRung(b *testing.B) (calls, error) {
	w, err := pausedWorld()
	if err != nil {
		return calls{}, err
	}
	want, err := w.Snapshot()
	if err != nil {
		return calls{}, err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := pausedWorld()
		if err != nil {
			return calls{}, err
		}
		got, err := w.Snapshot()
		if err != nil {
			return calls{}, err
		}
		if got.Digest != want.Digest {
			return calls{}, fmt.Errorf("restore diverged: %s vs %s", got.Digest, want.Digest)
		}
	}
	return calls{}, nil
}
