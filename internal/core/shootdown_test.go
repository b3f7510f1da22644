package core_test

import (
	"fmt"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/pmap"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
	"shootdown/internal/xpr"
)

// world is a machine + pmap system + shootdown wired together, without the
// kernel scheduler: test procs play the role of threads pinned to CPUs.
type world struct {
	eng *sim.Engine
	m   *machine.Machine
	sd  *core.Shootdown
	sys *pmap.System
}

func newWorld(t *testing.T, ncpu int, chaosSeed int64) *world {
	t.Helper()
	var eng *sim.Engine
	if chaosSeed != 0 {
		eng = sim.New(sim.WithMaxTime(60_000_000_000), sim.WithChaos(chaosSeed))
	} else {
		eng = sim.New(sim.WithMaxTime(60_000_000_000))
	}
	costs := machine.DefaultCosts()
	costs.JitterPct = 0
	m := machine.New(eng, machine.Options{NumCPUs: ncpu, MemFrames: 1024, Costs: costs, Seed: chaosSeed})
	sd := core.New(m, core.Options{})
	sys, err := pmap.NewSystem(m, sd)
	if err != nil {
		t.Fatal(err)
	}
	return &world{eng: eng, m: m, sd: sd, sys: sys}
}

// mapPage allocates a frame and enters it into pm at va via an Exec-free
// direct table write (setup shortcut used before procs start).
func (w *world) mapPageRaw(t *testing.T, pm *pmap.Pmap, va ptable.VAddr, prot pmap.Prot) mem.Frame {
	t.Helper()
	f, err := w.m.Phys.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.Table.Enter(va, ptable.Make(f, prot.CanWrite())); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestShootdownPreventsStaleWrites is the §5.1 consistency scenario at the
// pmap level: writers on several CPUs cache a writable entry; one CPU
// reprotects the page read-only; after Protect returns, no write may
// succeed anywhere.
func TestShootdownPreventsStaleWrites(t *testing.T) {
	const ncpu = 4
	w := newWorld(t, ncpu, 0)
	up, err := w.sys.NewUser()
	if err != nil {
		t.Fatal(err)
	}
	page := ptable.VAddr(0x10000)
	w.mapPageRaw(t, up, page, pmap.ProtRW)

	var protectDone sim.Time = -1
	violations := 0
	writersDone := 0

	for i := 1; i < ncpu; i++ {
		cpu := i
		w.eng.Spawn(fmt.Sprintf("writer%d", cpu), func(p *sim.Proc) {
			ex := w.m.Attach(p, cpu)
			defer ex.Detach()
			up.Activate(ex, cpu)
			va := page + ptable.VAddr(cpu*8)
			for n := uint32(0); ; n++ {
				fault := ex.Write(va, n)
				if fault != nil {
					break // reprotected; thread takes its write fault
				}
				if protectDone >= 0 && ex.Now() > protectDone {
					violations++
				}
				ex.Advance(5_000)
			}
			writersDone++
		})
	}
	w.eng.Spawn("initiator", func(p *sim.Proc) {
		ex := w.m.Attach(p, 0)
		defer ex.Detach()
		up.Activate(ex, 0)
		ex.Advance(200_000) // let writers populate their TLBs
		up.Protect(ex, page, page+mem.PageSize, pmap.ProtRead)
		protectDone = ex.Now()
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d writes succeeded after Protect returned", violations)
	}
	if writersDone != ncpu-1 {
		t.Fatalf("only %d writers faulted out", writersDone)
	}
	st := w.sd.Stats()
	if st.Syncs == 0 || st.IPIsSent == 0 {
		t.Fatalf("shootdown never exercised: %+v", st)
	}
}

// nullStrategy does nothing — demonstrating that the simulated hardware
// really produces inconsistencies without a consistency mechanism.
type nullStrategy struct{}

func (nullStrategy) Name() string                 { return "none" }
func (nullStrategy) Begin(*machine.Exec) *core.Op { return &core.Op{} }
func (nullStrategy) Sync(*machine.Exec, *core.Op, core.Pmap, ptable.VAddr, ptable.VAddr) int {
	return 0
}
func (nullStrategy) Finish(*machine.Exec, *core.Op) {}
func (nullStrategy) GoIdle(*machine.Exec)           {}
func (nullStrategy) GoActive(*machine.Exec)         {}

func TestWithoutShootdownStaleWritesHappen(t *testing.T) {
	const ncpu = 4
	eng := sim.New(sim.WithMaxTime(60_000_000_000))
	costs := machine.DefaultCosts()
	costs.JitterPct = 0
	m := machine.New(eng, machine.Options{NumCPUs: ncpu, MemFrames: 1024, Costs: costs})
	sys, err := pmap.NewSystem(m, nullStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := sys.NewUser()
	if err != nil {
		t.Fatal(err)
	}
	page := ptable.VAddr(0x10000)
	f, _ := m.Phys.AllocFrame()
	if err := up.Table.Enter(page, ptable.Make(f, true)); err != nil {
		t.Fatal(err)
	}

	var protectDone sim.Time = -1
	violations := 0
	for i := 1; i < ncpu; i++ {
		cpu := i
		eng.Spawn(fmt.Sprintf("writer%d", cpu), func(p *sim.Proc) {
			ex := m.Attach(p, cpu)
			defer ex.Detach()
			up.Activate(ex, cpu)
			va := page + ptable.VAddr(cpu*8)
			for n := uint32(0); n < 500; n++ {
				if ex.Write(va, n) != nil {
					break
				}
				if protectDone >= 0 && ex.Now() > protectDone {
					violations++
				}
				ex.Advance(5_000)
			}
		})
	}
	eng.Spawn("initiator", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		up.Activate(ex, 0)
		ex.Advance(200_000)
		up.Protect(ex, page, page+mem.PageSize, pmap.ProtRead)
		protectDone = ex.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if violations == 0 {
		t.Fatal("expected stale-TLB writes without a consistency mechanism; the problem did not manifest")
	}
}

// TestCrossedShootdownsNoDeadlock exercises two initiators shooting at each
// other — one on the kernel pmap, one on a user pmap — which is exactly
// the deadlock the active-set removal avoids.
func TestCrossedShootdownsNoDeadlock(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := newWorld(t, 4, seed)
			up, err := w.sys.NewUser()
			if err != nil {
				t.Fatal(err)
			}
			upage := ptable.VAddr(0x20000)
			kpage := machine.KernelBase + 0x30000
			w.mapPageRaw(t, up, upage, pmap.ProtRW)
			w.mapPageRaw(t, w.sys.Kernel, kpage, pmap.ProtRW)

			// Users of both pmaps on cpus 2 and 3.
			for i := 2; i < 4; i++ {
				cpu := i
				w.eng.Spawn(fmt.Sprintf("user%d", cpu), func(p *sim.Proc) {
					ex := w.m.Attach(p, cpu)
					defer ex.Detach()
					up.Activate(ex, cpu)
					for n := uint32(0); ; n++ {
						uFault := ex.Write(upage, n)
						kFault := ex.Write(kpage, n)
						if uFault != nil && kFault != nil {
							break
						}
						ex.Advance(3_000)
					}
				})
			}
			w.eng.Spawn("userInitiator", func(p *sim.Proc) {
				ex := w.m.Attach(p, 0)
				defer ex.Detach()
				up.Activate(ex, 0)
				ex.Advance(150_000)
				up.Protect(ex, upage, upage+mem.PageSize, pmap.ProtRead)
			})
			w.eng.Spawn("kernelInitiator", func(p *sim.Proc) {
				ex := w.m.Attach(p, 1)
				defer ex.Detach()
				ex.Advance(150_000) // collide with the user initiator
				w.sys.Kernel.Protect(ex, kpage, kpage+mem.PageSize, pmap.ProtRead)
			})
			if err := w.eng.Run(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestResponderCeasesUsingPmap: a responder that deactivates the pmap
// before its interrupt arrives must not be waited for.
func TestResponderCeasesUsingPmap(t *testing.T) {
	w := newWorld(t, 3, 0)
	up, err := w.sys.NewUser()
	if err != nil {
		t.Fatal(err)
	}
	page := ptable.VAddr(0x40000)
	w.mapPageRaw(t, up, page, pmap.ProtRW)

	w.eng.Spawn("transient", func(p *sim.Proc) {
		ex := w.m.Attach(p, 1)
		defer ex.Detach()
		up.Activate(ex, 1)
		if f := ex.Write(page, 1); f != nil {
			t.Errorf("write: %v", f)
		}
		// Leave the address space with interrupts hard-disabled, so the
		// initiator can never get an ack from us via the responder; it
		// must notice in_use going false instead.
		s := ex.DisableAll()
		ex.Advance(300_000)
		up.Deactivate(ex, 1)
		ex.Advance(2_000_000)
		ex.RestoreIPL(s)
	})
	done := false
	w.eng.Spawn("initiator", func(p *sim.Proc) {
		ex := w.m.Attach(p, 0)
		defer ex.Detach()
		up.Activate(ex, 0)
		ex.Advance(400_000) // transient has written and is mid-disable
		up.Protect(ex, page, page+mem.PageSize, pmap.ProtRead)
		done = true
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("initiator never completed")
	}
}

// TestIdleOptimization: idle processors get actions queued but no IPI, and
// drain the queue on GoActive.
func TestIdleOptimization(t *testing.T) {
	w := newWorld(t, 2, 0)
	kpage := machine.KernelBase + 0x50000
	w.mapPageRaw(t, w.sys.Kernel, kpage, pmap.ProtRW)

	w.eng.Spawn("idler", func(p *sim.Proc) {
		ex := w.m.Attach(p, 1)
		defer ex.Detach()
		// Cache the kernel page, then go idle.
		if f := ex.Write(kpage, 1); f != nil {
			t.Errorf("write: %v", f)
		}
		w.sd.GoIdle(ex)
		ex.Advance(2_000_000)
		// Leaving idle must drain the queued invalidation.
		w.sd.GoActive(ex)
		if w.sd.ActionNeeded(1) {
			t.Error("action still pending after GoActive")
		}
		// The stale writable entry must be gone: write faults now.
		if f := ex.Write(kpage, 2); f == nil {
			t.Error("stale TLB entry survived idle drain")
		}
	})
	w.eng.Spawn("initiator", func(p *sim.Proc) {
		ex := w.m.Attach(p, 0)
		defer ex.Detach()
		ex.Advance(500_000) // idler is idle now
		w.sys.Kernel.Protect(ex, kpage, kpage+mem.PageSize, pmap.ProtRead)
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.sd.Stats()
	if st.IdleSkipped == 0 {
		t.Fatalf("idle optimization never used: %+v", st)
	}
	if st.IPIsSent != 0 {
		t.Fatalf("IPIs sent to idle processor: %+v", st)
	}
}

func TestIdleOptimizationDisabled(t *testing.T) {
	eng := sim.New(sim.WithMaxTime(60_000_000_000))
	costs := machine.DefaultCosts()
	costs.JitterPct = 0
	m := machine.New(eng, machine.Options{NumCPUs: 2, MemFrames: 512, Costs: costs})
	sd := core.New(m, core.Options{DisableIdleOptimization: true})
	sys, err := pmap.NewSystem(m, sd)
	if err != nil {
		t.Fatal(err)
	}
	kpage := machine.KernelBase + 0x50000
	f, _ := m.Phys.AllocFrame()
	if err := sys.Kernel.Table.Enter(kpage, ptable.Make(f, true)); err != nil {
		t.Fatal(err)
	}
	eng.Spawn("idler", func(p *sim.Proc) {
		ex := m.Attach(p, 1)
		defer ex.Detach()
		sd.GoIdle(ex)
		ex.Advance(3_000_000) // idle loop with interrupts enabled
	})
	eng.Spawn("initiator", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		ex.Advance(500_000)
		sys.Kernel.Protect(ex, kpage, kpage+mem.PageSize, pmap.ProtRead)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sd.Stats().IPIsSent == 0 {
		t.Fatal("with the optimization disabled, the idle CPU should be interrupted")
	}
}

// TestQueueOverflowFallsBackToFlush: more shootdowns than queue slots while
// the responder can't run degrade to a full flush, never losing an
// invalidation.
func TestQueueOverflowFlush(t *testing.T) {
	eng := sim.New(sim.WithMaxTime(120_000_000_000))
	costs := machine.DefaultCosts()
	costs.JitterPct = 0
	m := machine.New(eng, machine.Options{NumCPUs: 2, MemFrames: 512, Costs: costs})
	sd := core.New(m, core.Options{QueueSize: 2})
	sys, err := pmap.NewSystem(m, sd)
	if err != nil {
		t.Fatal(err)
	}
	base := machine.KernelBase + 0x100000
	for i := 0; i < 6; i++ {
		f, _ := m.Phys.AllocFrame()
		if err := sys.Kernel.Table.Enter(base+ptable.VAddr(i*mem.PageSize), ptable.Make(f, true)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Spawn("idler", func(p *sim.Proc) {
		ex := m.Attach(p, 1)
		defer ex.Detach()
		// Cache all six pages writable.
		for i := 0; i < 6; i++ {
			if f := ex.Write(base+ptable.VAddr(i*mem.PageSize), 1); f != nil {
				t.Errorf("prime write %d: %v", i, f)
			}
		}
		sd.GoIdle(ex) // queue fills while we're idle (no IPIs)
		ex.Advance(30_000_000)
		sd.GoActive(ex)
		// Every page must now be read-only despite the overflow.
		for i := 0; i < 6; i++ {
			if f := ex.Write(base+ptable.VAddr(i*mem.PageSize), 2); f == nil {
				t.Errorf("page %d still writable after overflow drain", i)
			}
		}
	})
	eng.Spawn("initiator", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		ex.Advance(1_000_000)
		for i := 0; i < 6; i++ {
			va := base + ptable.VAddr(i*mem.PageSize)
			sys.Kernel.Protect(ex, va, va+mem.PageSize, pmap.ProtRead)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := sd.Stats()
	if st.QueueOverflows == 0 {
		t.Fatalf("queue never overflowed: %+v", st)
	}
	if st.FullFlushes == 0 {
		t.Fatalf("overflow did not flush: %+v", st)
	}
}

// TestQueueOverflowDegradationTable drives the consistency-action queue
// through every regime — comfortably fits, exactly full, one over, far
// over — and checks detail 2 of Section 4 in each: enqueues past QueueSize
// put the queue into the overflow state exactly when they should, overflow
// degrades the drain to a full TLB flush, and no regime ever loses an
// invalidation (every reprotected page faults on write after the drain).
// FlushThreshold is pinned far above the page count so a full flush can
// only come from overflow, not from the size heuristic.
func TestQueueOverflowDegradationTable(t *testing.T) {
	cases := []struct {
		name         string
		queueSize    int
		pages        int
		wantOverflow bool
	}{
		{"fits", 8, 4, false},
		{"exactly-full", 4, 4, false},
		{"one-over", 4, 5, true},
		{"tiny-queue", 2, 6, true},
		{"single-slot", 1, 3, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(sim.WithMaxTime(120_000_000_000))
			costs := machine.DefaultCosts()
			costs.JitterPct = 0
			m := machine.New(eng, machine.Options{NumCPUs: 2, MemFrames: 512, Costs: costs})
			sd := core.New(m, core.Options{QueueSize: tc.queueSize, FlushThreshold: 100})
			sys, err := pmap.NewSystem(m, sd)
			if err != nil {
				t.Fatal(err)
			}
			base := machine.KernelBase + 0x180000
			for i := 0; i < tc.pages; i++ {
				f, _ := m.Phys.AllocFrame()
				if err := sys.Kernel.Table.Enter(base+ptable.VAddr(i*mem.PageSize), ptable.Make(f, true)); err != nil {
					t.Fatal(err)
				}
			}
			eng.Spawn("idler", func(p *sim.Proc) {
				ex := m.Attach(p, 1)
				defer ex.Detach()
				for i := 0; i < tc.pages; i++ {
					if f := ex.Write(base+ptable.VAddr(i*mem.PageSize), 1); f != nil {
						t.Errorf("prime write %d: %v", i, f)
					}
				}
				sd.GoIdle(ex) // queue fills while we're idle (no IPIs)
				ex.Advance(30_000_000)
				sd.GoActive(ex)
				for i := 0; i < tc.pages; i++ {
					if f := ex.Write(base+ptable.VAddr(i*mem.PageSize), 2); f == nil {
						t.Errorf("page %d still writable after drain", i)
					}
				}
			})
			eng.Spawn("initiator", func(p *sim.Proc) {
				ex := m.Attach(p, 0)
				defer ex.Detach()
				ex.Advance(1_000_000)
				for i := 0; i < tc.pages; i++ {
					va := base + ptable.VAddr(i*mem.PageSize)
					sys.Kernel.Protect(ex, va, va+mem.PageSize, pmap.ProtRead)
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			st := sd.Stats()
			if tc.wantOverflow {
				if st.QueueOverflows == 0 {
					t.Fatalf("queue never overflowed: %+v", st)
				}
				if st.FullFlushes == 0 {
					t.Fatalf("overflow did not degrade to a full flush: %+v", st)
				}
			} else {
				if st.QueueOverflows != 0 {
					t.Fatalf("unexpected overflow with %d actions in a %d-slot queue: %+v",
						tc.pages, tc.queueSize, st)
				}
				if st.FullFlushes != 0 {
					t.Fatalf("full flush without overflow (threshold should not trip): %+v", st)
				}
				if st.EntriesInvalidated == 0 {
					t.Fatalf("no individual invalidations recorded: %+v", st)
				}
			}
		})
	}
}

// TestLazyEvaluationSkipsUnmappedRanges: reprotecting a never-touched page
// causes no shootdown with lazy evaluation, and does cause one without it
// (when the second-level chunk exists) — the Parthenon guard-page case.
func TestLazyEvaluationSkips(t *testing.T) {
	runCase := func(lazyDisabled bool) (syncs, lazySkips uint64) {
		w := newWorld(t, 2, 0)
		w.sys.LazyDisabled = lazyDisabled
		up, err := w.sys.NewUser()
		if err != nil {
			t.Fatal(err)
		}
		// Map the "first stack page" so the second-level chunk exists;
		// the guard page next to it stays unmapped.
		first := ptable.VAddr(0x100000)
		guard := first + mem.PageSize
		w.mapPageRaw(t, up, first, pmap.ProtRW)
		w.eng.Spawn("other", func(p *sim.Proc) {
			ex := w.m.Attach(p, 1)
			defer ex.Detach()
			up.Activate(ex, 1)
			ex.Advance(3_000_000)
		})
		w.eng.Spawn("main", func(p *sim.Proc) {
			ex := w.m.Attach(p, 0)
			defer ex.Detach()
			up.Activate(ex, 0)
			ex.Advance(100_000)
			up.Protect(ex, guard, guard+mem.PageSize, pmap.ProtRead)
		})
		if err := w.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return w.sd.Stats().Syncs, w.sys.Stats().LazySkips
	}
	syncs, skips := runCase(false)
	if syncs != 0 || skips == 0 {
		t.Fatalf("lazy on: syncs=%d skips=%d; want 0 syncs", syncs, skips)
	}
	syncs, _ = runCase(true)
	if syncs == 0 {
		t.Fatal("lazy off: the guard-page reprotect should shoot down")
	}
}

// TestStructuralLazySurvivesLazyDisabled: with lazy disabled, a range with
// no second-level tables is still skipped.
func TestStructuralLazySkip(t *testing.T) {
	w := newWorld(t, 2, 0)
	w.sys.LazyDisabled = true
	up, err := w.sys.NewUser()
	if err != nil {
		t.Fatal(err)
	}
	w.eng.Spawn("other", func(p *sim.Proc) {
		ex := w.m.Attach(p, 1)
		defer ex.Detach()
		up.Activate(ex, 1)
		ex.Advance(1_000_000)
	})
	w.eng.Spawn("main", func(p *sim.Proc) {
		ex := w.m.Attach(p, 0)
		defer ex.Detach()
		up.Activate(ex, 0)
		ex.Advance(50_000)
		// 64 MB of completely unconstructed address space.
		up.Protect(ex, 0x10000000, 0x14000000, pmap.ProtRead)
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if w.sd.Stats().Syncs != 0 {
		t.Fatal("structural skip failed")
	}
	if w.sys.Stats().StructuralSkips == 0 {
		t.Fatal("structural skip not counted")
	}
}

// TestXprInstrumentation: initiator and responder events are recorded with
// plausible fields.
func TestXprInstrumentation(t *testing.T) {
	w := newWorld(t, 3, 0)
	buf := xpr.New(1024)
	w.sd.Trace = buf
	up, err := w.sys.NewUser()
	if err != nil {
		t.Fatal(err)
	}
	page := ptable.VAddr(0x60000)
	w.mapPageRaw(t, up, page, pmap.ProtRW)
	for i := 1; i < 3; i++ {
		cpu := i
		w.eng.Spawn(fmt.Sprintf("w%d", cpu), func(p *sim.Proc) {
			ex := w.m.Attach(p, cpu)
			defer ex.Detach()
			up.Activate(ex, cpu)
			for {
				if ex.Write(page, 1) != nil {
					break
				}
				ex.Advance(5_000)
			}
		})
	}
	w.eng.Spawn("main", func(p *sim.Proc) {
		ex := w.m.Attach(p, 0)
		defer ex.Detach()
		up.Activate(ex, 0)
		ex.Advance(200_000)
		up.Protect(ex, page, page+mem.PageSize, pmap.ProtRead)
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	inits := buf.Select(xpr.EvInitiator)
	if len(inits) != 1 {
		t.Fatalf("initiator events = %d, want 1", len(inits))
	}
	kernel, pages, procs, elapsed := inits[0].Initiator()
	if kernel || pages != 1 || procs != 2 {
		t.Fatalf("initiator record = kernel:%v pages:%d procs:%d", kernel, pages, procs)
	}
	if elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
	if len(buf.Select(xpr.EvResponder)) == 0 {
		t.Fatal("no responder events")
	}
}

// TestManySeedsNoViolationNoDeadlock fuzzes interleavings of the full
// consistency scenario.
func TestManySeedsNoViolationNoDeadlock(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		w := newWorld(t, 6, seed)
		up, err := w.sys.NewUser()
		if err != nil {
			t.Fatal(err)
		}
		page := ptable.VAddr(0x70000)
		w.mapPageRaw(t, up, page, pmap.ProtRW)
		var protectDone sim.Time = -1
		violations := 0
		for i := 1; i < 6; i++ {
			cpu := i
			w.eng.Spawn(fmt.Sprintf("w%d", cpu), func(p *sim.Proc) {
				ex := w.m.Attach(p, cpu)
				defer ex.Detach()
				up.Activate(ex, cpu)
				for n := uint32(0); ; n++ {
					if ex.Write(page+ptable.VAddr(cpu*4), n) != nil {
						break
					}
					if protectDone >= 0 && ex.Now() > protectDone {
						violations++
					}
					ex.Advance(sim.Time(1_000 + cpu*700))
				}
			})
		}
		w.eng.Spawn("main", func(p *sim.Proc) {
			ex := w.m.Attach(p, 0)
			defer ex.Detach()
			up.Activate(ex, 0)
			ex.Advance(sim.Time(50_000 + seed*13_000))
			up.Protect(ex, page, page+mem.PageSize, pmap.ProtRead)
			protectDone = ex.Now()
		})
		if err := w.eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if violations != 0 {
			t.Fatalf("seed %d: %d stale writes", seed, violations)
		}
	}
}

// TestActionPages checks the helper used for flush-threshold decisions.
func TestActionPages(t *testing.T) {
	a := core.Action{Start: 0x1000, End: 0x1000 + 3*mem.PageSize}
	if a.Pages() != 3 {
		t.Fatalf("Pages = %d", a.Pages())
	}
	b := core.Action{Start: 0x1000, End: 0x1001}
	if b.Pages() != 1 {
		t.Fatalf("partial page Pages = %d", b.Pages())
	}
}

// TestWatchdogEscalationTable walks the initiator watchdog through every
// rung of its escalation ladder — timeout, IPI re-send, exponential backoff
// up to the cap, the conservative full-flush escalation, and finally the
// membership re-check that abandons a wait on a dead (or dead-and-revived)
// responder. One responder on CPU 1 caches a writable entry and then
// misbehaves per the case; the initiator on CPU 0 reprotects the page and
// must always come back, with the stats and the recovery-latency metric
// telling the story of how.
func TestWatchdogEscalationTable(t *testing.T) {
	const respCPU = 1
	const page = ptable.VAddr(0x90000)
	cases := []struct {
		name   string
		opts   core.Options
		faults string   // injector spec for the machine ("" = no injector)
		stall  sim.Time // responder holds interrupts masked this long (0 = open)
		failAt sim.Time // >0: fail-stop the responder's CPU at this time
		revive bool     // bring it straight back (incarnation bump, cold TLB)
		device bool     // device rung: the straggler is a device TLB, not a CPU
		check  func(t *testing.T, st core.Stats, recovery []float64)
	}{
		{
			// The IPI arrived but the responder has interrupts masked:
			// every timeout finds the vector still pending, so the watchdog
			// must wait it out without ever re-sending.
			name: "timeout-pending-ipi-no-resend",
			opts: core.Options{WatchdogTimeout: 200_000, WatchdogMaxRetries: 10},
			// Off the watchdog's check points (500us, 900us, 1.7ms), so no
			// check races the interrupt being serviced at unmask time.
			stall: 1_000_000,
			check: func(t *testing.T, st core.Stats, recovery []float64) {
				if st.WatchdogTimeouts == 0 {
					t.Errorf("no timeouts recorded: %+v", st)
				}
				if st.WatchdogRetries != 0 {
					t.Errorf("retried %d times with the IPI still pending", st.WatchdogRetries)
				}
				if st.WatchdogEscalations != 0 || st.WatchdogMembershipRescues != 0 {
					t.Errorf("escalated against a merely slow responder: %+v", st)
				}
				if len(recovery) != 1 || recovery[0] <= 0 {
					t.Errorf("recovery latency %v, want one positive sample", recovery)
				}
			},
		},
		{
			// The interrupt hardware eats IPIs: the responder spins with
			// interrupts open and never hears the first one, so recovery
			// has to come from a watchdog re-send.
			name:   "dropped-ipi-resent",
			opts:   core.Options{WatchdogTimeout: 200_000, WatchdogMaxRetries: 10},
			faults: "drop=0.9",
			check: func(t *testing.T, st core.Stats, recovery []float64) {
				if st.WatchdogTimeouts == 0 || st.WatchdogRetries == 0 {
					t.Errorf("dropped IPI not retried: %+v", st)
				}
				if st.WatchdogMembershipRescues != 0 {
					t.Errorf("membership rescue against a live responder: %+v", st)
				}
				if len(recovery) == 0 {
					t.Error("no recovery latency recorded")
				}
			},
		},
		{
			// A long stall under a small backoff cap: the retry interval
			// doubles 100→200→400 and then pins at the cap, so the timeout
			// count sits between pure doubling (~5) and no backoff (~30).
			name: "backoff-doubles-to-cap",
			opts: core.Options{
				WatchdogTimeout:    100_000,
				WatchdogBackoffMax: 400_000,
				WatchdogMaxRetries: 50,
			},
			stall: 3_000_000,
			check: func(t *testing.T, st core.Stats, recovery []float64) {
				if st.WatchdogTimeouts < 6 || st.WatchdogTimeouts > 12 {
					t.Errorf("timeouts = %d, want 6..12 (backoff doubling, capped at 400us)", st.WatchdogTimeouts)
				}
				if st.WatchdogEscalations != 0 {
					t.Errorf("escalated below the retry budget: %+v", st)
				}
				if len(recovery) != 1 || recovery[0] <= 0 {
					t.Errorf("recovery latency %v, want one positive sample", recovery)
				}
			},
		},
		{
			// Retry budget exhausted: the straggler's queue is forced into
			// overflow so its eventual drain is one conservative full flush.
			name: "escalates-to-full-flush",
			opts: core.Options{
				WatchdogTimeout:    100_000,
				WatchdogBackoffMax: 100_000,
				WatchdogMaxRetries: 2,
			},
			stall: 1_500_000,
			check: func(t *testing.T, st core.Stats, recovery []float64) {
				if st.WatchdogEscalations == 0 {
					t.Errorf("retry budget blown but never escalated: %+v", st)
				}
				if st.FullFlushes == 0 {
					t.Errorf("escalation did not degrade the drain to a full flush: %+v", st)
				}
				if len(recovery) != 1 || recovery[0] <= 0 {
					t.Errorf("recovery latency %v, want one positive sample", recovery)
				}
			},
		},
		{
			// The responder fail-stops mid-wait: it will never acknowledge,
			// and only the membership re-check can end the wait.
			name:   "member-rescue-fail-stop",
			opts:   core.Options{WatchdogTimeout: 200_000},
			stall:  50_000_000_000, // masked until killed
			failAt: 700_000,
			check: func(t *testing.T, st core.Stats, recovery []float64) {
				if st.WatchdogMembershipRescues == 0 {
					t.Errorf("dead responder never rescued: %+v", st)
				}
				if len(recovery) != 1 || recovery[0] <= 0 {
					t.Errorf("recovery latency %v, want one positive sample", recovery)
				}
			},
		},
		{
			// Fail and revive between two watchdog checks: the CPU is back
			// online, but in a fresh incarnation with a cold TLB — the
			// incarnation captured at scan time unmasks the impostor.
			name:   "member-rescue-revived-incarnation",
			opts:   core.Options{WatchdogTimeout: 1_000_000},
			stall:  50_000_000_000, // masked until killed
			failAt: 600_000,
			revive: true,
			check: func(t *testing.T, st core.Stats, recovery []float64) {
				if st.WatchdogMembershipRescues == 0 {
					t.Errorf("revived responder never rescued: %+v", st)
				}
				if len(recovery) != 1 || recovery[0] <= 0 {
					t.Errorf("recovery latency %v, want one positive sample", recovery)
				}
			},
		},
		// --- device rungs: the straggler acks by completion message, ---
		// --- not IPI, so its ladder is ring -> reset -> quarantine    ---
		{
			// The initial doorbell ring is always lost: the request sits
			// queued but unnoticed until the watchdog's first timeout
			// re-rings (re-rings are reliable), which rescues the wait.
			name:   "dev-dropped-doorbell-rering",
			opts:   core.Options{WatchdogTimeout: 200_000, WatchdogMaxRetries: 10, DevMaxRerings: 10},
			faults: "devdrop=1",
			device: true,
			check: func(t *testing.T, st core.Stats, recovery []float64) {
				if st.DevCompletionTimeouts == 0 || st.DevRerings == 0 {
					t.Errorf("dropped doorbell not re-rung: %+v", st)
				}
				if st.DevResets != 0 || st.DevQuarantines != 0 {
					t.Errorf("escalated past re-ring against a merely deaf doorbell: %+v", st)
				}
				if len(recovery) != 1 || recovery[0] <= 0 {
					t.Errorf("recovery latency %v, want one positive sample", recovery)
				}
			},
		},
		{
			// The device services the queue but an injected stall holds the
			// completion past the timeout: the watchdog re-rings (harmless)
			// until the stall drains, never escalating to reset.
			name:   "dev-stalled-completion-timeout",
			opts:   core.Options{WatchdogTimeout: 50_000, WatchdogMaxRetries: 10, DevMaxRerings: 50},
			faults: "devstall=1,devstallmax=3ms",
			device: true,
			check: func(t *testing.T, st core.Stats, recovery []float64) {
				if st.DevCompletionTimeouts == 0 {
					t.Errorf("stalled completion never timed out: %+v", st)
				}
				if st.DevResets != 0 || st.DevQuarantines != 0 {
					t.Errorf("escalated against a merely slow device: %+v", st)
				}
				if len(recovery) != 1 || recovery[0] <= 0 {
					t.Errorf("recovery latency %v, want one positive sample", recovery)
				}
			},
		},
		{
			// Re-ring budget exhausted against a long stall: the
			// drain-and-reset rung rescues the wait — its full IOTLB flush
			// satisfies every outstanding request at once.
			name: "dev-escalates-to-reset",
			opts: core.Options{
				WatchdogTimeout:    50_000,
				WatchdogBackoffMax: 100_000,
				WatchdogMaxRetries: 10,
				DevMaxRerings:      2,
			},
			faults: "devstall=1,devstallmax=40ms",
			device: true,
			check: func(t *testing.T, st core.Stats, recovery []float64) {
				if st.DevRerings == 0 || st.DevResets == 0 {
					t.Errorf("re-ring budget blown but never reset: %+v", st)
				}
				if st.DevQuarantines != 0 {
					t.Errorf("quarantined a device a reset had already rescued: %+v", st)
				}
				if len(recovery) != 1 || recovery[0] <= 0 {
					t.Errorf("recovery latency %v, want one positive sample", recovery)
				}
			},
		},
		{
			// A wedged device ignores re-rings and the reset too: the final
			// rung fail-stops it and the shootdown completes without its
			// acknowledgement (the harness asserts the initiator came back).
			name: "dev-wedge-quarantined",
			opts: core.Options{
				WatchdogTimeout:    50_000,
				WatchdogBackoffMax: 100_000,
				WatchdogMaxRetries: 10,
				DevMaxRerings:      2,
			},
			faults: "devwedge=1",
			device: true,
			check: func(t *testing.T, st core.Stats, recovery []float64) {
				if st.DevRerings == 0 || st.DevResets == 0 {
					t.Errorf("quarantine skipped ladder rungs: %+v", st)
				}
				if st.DevQuarantines != 1 {
					t.Errorf("DevQuarantines = %d, want 1: %+v", st.DevQuarantines, st)
				}
				if len(recovery) != 1 || recovery[0] <= 0 {
					t.Errorf("recovery latency %v, want one positive sample", recovery)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.device {
				runDeviceEscalation(t, tc.opts, tc.faults, tc.check)
				return
			}
			eng := sim.New(sim.WithMaxTime(60_000_000_000))
			costs := machine.DefaultCosts()
			costs.JitterPct = 0
			mo := machine.Options{NumCPUs: 2, MemFrames: 1024, Costs: costs}
			if tc.faults != "" {
				fc, err := fault.ParseSpec(tc.faults)
				if err != nil {
					t.Fatal(err)
				}
				fc.Seed = 11
				mo.Faults = fault.New(fc)
			}
			m := machine.New(eng, mo)
			sd := core.New(m, tc.opts)
			sys, err := pmap.NewSystem(m, sd)
			if err != nil {
				t.Fatal(err)
			}
			up, err := sys.NewUser()
			if err != nil {
				t.Fatal(err)
			}
			f, err := m.Phys.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			if err := up.Table.Enter(page, ptable.Make(f, true)); err != nil {
				t.Fatal(err)
			}
			eng.Spawn("responder", func(p *sim.Proc) {
				ex := m.Attach(p, respCPU)
				defer ex.Detach()
				up.Activate(ex, respCPU)
				if fa := ex.Write(page, 1); fa != nil {
					t.Errorf("prime write: %v", fa)
					return
				}
				if tc.stall > 0 {
					prev := ex.DisableAll()
					ex.Advance(tc.stall)
					ex.RestoreIPL(prev)
				}
				// Spin with interrupts open until the invalidation lands.
				for n := uint32(2); ex.Write(page, n) == nil; n++ {
					ex.Advance(5_000)
				}
			})
			done := false
			eng.Spawn("initiator", func(p *sim.Proc) {
				ex := m.Attach(p, 0)
				defer ex.Detach()
				up.Activate(ex, 0)
				ex.Advance(300_000) // let the responder cache the entry
				up.Protect(ex, page, page+mem.PageSize, pmap.ProtRead)
				done = true
			})
			if tc.failAt > 0 {
				eng.Spawn("reaper", func(p *sim.Proc) {
					p.Sleep(tc.failAt)
					if !m.FailCPU(respCPU) {
						t.Error("FailCPU refused")
					}
					if tc.revive && !m.OnlineCPU(respCPU) {
						t.Error("OnlineCPU refused")
					}
				})
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !done {
				t.Fatal("initiator never completed")
			}
			tc.check(t, sd.Stats(), sd.WatchdogRecoveryUS())
		})
	}
}

// runDeviceEscalation is the device-rung harness for the escalation table:
// one device caches a translation via a priming DMA read, then misbehaves
// per the injected fault while the initiator reprotects the page. The
// initiator's completion wait must always come back — via re-ring, reset,
// or quarantine — with the stats and recovery-latency metric recording
// which rung did the rescuing.
func runDeviceEscalation(t *testing.T, opts core.Options, faults string, check func(*testing.T, core.Stats, []float64)) {
	const page = ptable.VAddr(0x90000)
	eng := sim.New(sim.WithMaxTime(60_000_000_000))
	costs := machine.DefaultCosts()
	costs.JitterPct = 0
	mo := machine.Options{NumCPUs: 2, MemFrames: 1024, Costs: costs, NumDevices: 1}
	if faults != "" {
		fc, err := fault.ParseSpec(faults)
		if err != nil {
			t.Fatal(err)
		}
		fc.Seed = 11
		mo.Faults = fault.New(fc)
	}
	m := machine.New(eng, mo)
	sd := core.New(m, opts)
	sys, err := pmap.NewSystem(m, sd)
	if err != nil {
		t.Fatal(err)
	}
	up, err := sys.NewUser()
	if err != nil {
		t.Fatal(err)
	}
	dev := m.Device(0)
	sys.AttachDevice(dev, up)
	f, err := m.Phys.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := up.Table.Enter(page, ptable.Make(f, true)); err != nil {
		t.Fatal(err)
	}
	stop := false
	eng.Spawn("devsvc", func(p *sim.Proc) {
		for !stop {
			if !dev.ServiceOne(p) {
				p.Sleep(20_000)
			}
		}
	})
	done := false
	eng.Spawn("initiator", func(p *sim.Proc) {
		defer func() { stop = true }()
		ex := m.Attach(p, 0)
		defer ex.Detach()
		up.Activate(ex, 0)
		// Prime the device's IOTLB so it genuinely holds the translation
		// the shootdown must kill.
		if _, fa := dev.DMARead(p, page); fa != nil {
			t.Errorf("prime DMA: %v", fa)
			return
		}
		ex.Advance(100_000)
		up.Protect(ex, page, page+mem.PageSize, pmap.ProtRead)
		done = true
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("initiator never completed its shootdown")
	}
	check(t, sd.Stats(), sd.WatchdogRecoveryUS())
}

// TestTaggedTLBFlushByASID: on tagged hardware, a shootdown flush drops
// only the target space's entries.
func TestTaggedFlushScoped(t *testing.T) {
	eng := sim.New(sim.WithMaxTime(60_000_000_000))
	costs := machine.DefaultCosts()
	costs.JitterPct = 0
	m := machine.New(eng, machine.Options{
		NumCPUs: 2, MemFrames: 512, Costs: costs,
		TLB: tlb.Config{Tagged: true},
	})
	sd := core.New(m, core.Options{FlushThreshold: 1})
	sys, err := pmap.NewSystem(m, sd)
	if err != nil {
		t.Fatal(err)
	}
	up, err := sys.NewUser()
	if err != nil {
		t.Fatal(err)
	}
	base := ptable.VAddr(0x200000)
	kpage := machine.KernelBase + 0x9000
	for i := 0; i < 4; i++ {
		f, _ := m.Phys.AllocFrame()
		if err := up.Table.Enter(base+ptable.VAddr(i*mem.PageSize), ptable.Make(f, true)); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := m.Phys.AllocFrame()
	if err := sys.Kernel.Table.Enter(kpage, ptable.Make(f, true)); err != nil {
		t.Fatal(err)
	}
	eng.Spawn("user", func(p *sim.Proc) {
		ex := m.Attach(p, 1)
		defer ex.Detach()
		up.Activate(ex, 1)
		for i := 0; i < 4; i++ {
			if fa := ex.Write(base+ptable.VAddr(i*mem.PageSize), 1); fa != nil {
				t.Errorf("prime: %v", fa)
			}
		}
		if fa := ex.Write(kpage, 1); fa != nil {
			t.Errorf("kernel prime: %v", fa)
		}
		ex.Advance(3_000_000)
		// Kernel entry must have survived the user-space flush.
		st := m.CPU(1).TLB
		if _, hit := st.Probe(kpage, tlb.ASIDNone); !hit {
			t.Error("kernel entry lost to a user-scoped flush")
		}
	})
	eng.Spawn("main", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		up.Activate(ex, 0)
		ex.Advance(500_000)
		// 4 pages > threshold 1 → per-ASID flush on responders.
		up.Protect(ex, base, base+4*mem.PageSize, pmap.ProtRead)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sd.Stats().FullFlushes == 0 {
		t.Fatal("expected threshold flush")
	}
}
