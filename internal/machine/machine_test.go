package machine

import (
	"strings"
	"testing"

	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
)

// testOptions returns a small deterministic machine configuration.
func testOptions(ncpu int) Options {
	c := DefaultCosts()
	c.JitterPct = 0
	return Options{NumCPUs: ncpu, MemFrames: 256, Costs: c}
}

// run executes fn as a proc attached to cpu 0 and runs the engine to
// completion, failing the test on error.
func run(t *testing.T, opts Options, fn func(m *Machine, ex *Exec)) *Machine {
	t.Helper()
	eng := sim.New(sim.WithMaxTime(10_000_000_000)) // 10s virtual safety net
	m := New(eng, opts)
	kt, err := ptable.New(m.Phys)
	if err != nil {
		t.Fatal(err)
	}
	m.SetKernelTable(kt)
	eng.Spawn("main", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		fn(m, ex)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func mapUserPage(t *testing.T, m *Machine, tab *ptable.Table, va ptable.VAddr, writable bool) mem.Frame {
	t.Helper()
	f, err := m.Phys.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Enter(va, ptable.Make(f, writable)); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAttachDetach(t *testing.T) {
	eng := sim.New()
	m := New(eng, testOptions(2))
	eng.Spawn("a", func(p *sim.Proc) {
		ex := m.Attach(p, 1)
		if m.CPU(1).Current() != ex {
			t.Error("Current() should be the attached exec")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("double attach should panic")
				}
			}()
			m.Attach(p, 1)
		}()
		ex.Detach()
		if m.CPU(1).Current() != nil {
			t.Error("Current() should be nil after detach")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceConsumesTime(t *testing.T) {
	run(t, testOptions(1), func(m *Machine, ex *Exec) {
		start := ex.Now()
		ex.Advance(5000)
		if ex.Now()-start != 5000 {
			t.Errorf("advanced %d, want 5000", ex.Now()-start)
		}
	})
}

func TestKernelMemoryReadWrite(t *testing.T) {
	run(t, testOptions(1), func(m *Machine, ex *Exec) {
		va := KernelBase + 0x4000
		f, _ := m.Phys.AllocFrame()
		if err := m.KernelTable().Enter(va, ptable.Make(f, true)); err != nil {
			t.Fatal(err)
		}
		if f := ex.Write(va+8, 1234); f != nil {
			t.Fatalf("write fault: %v", f)
		}
		v, fault := ex.Read(va + 8)
		if fault != nil || v != 1234 {
			t.Fatalf("read = %d, %v", v, fault)
		}
		// Second access should hit the TLB.
		st := m.CPU(0).TLB.Stats()
		if st.Hits == 0 {
			t.Errorf("no TLB hits recorded: %+v", st)
		}
	})
}

func TestUserVsKernelSplit(t *testing.T) {
	run(t, testOptions(1), func(m *Machine, ex *Exec) {
		ut, err := ptable.New(m.Phys)
		if err != nil {
			t.Fatal(err)
		}
		ex.CPU().SetUserTable(ut, 1)
		uva := ptable.VAddr(0x1000)
		mapUserPage(t, m, ut, uva, true)
		if f := ex.Write(uva, 7); f != nil {
			t.Fatalf("user write fault: %v", f)
		}
		// The same numeric offset in kernel space is unmapped.
		if _, f := ex.Read(KernelBase + uva); f == nil {
			t.Fatal("kernel-half read should fault")
		}
	})
}

func TestFaults(t *testing.T) {
	run(t, testOptions(1), func(m *Machine, ex *Exec) {
		// No user table at all.
		_, f := ex.Read(0x1000)
		if f == nil || f.Kind != FaultNoSpace {
			t.Fatalf("fault = %v, want no-space", f)
		}
		ut, _ := ptable.New(m.Phys)
		ex.CPU().SetUserTable(ut, 1)
		// Unmapped page.
		_, f = ex.Read(0x1000)
		if f == nil || f.Kind != FaultNotPresent {
			t.Fatalf("fault = %v, want not-present", f)
		}
		// Read-only page: read OK, write faults.
		mapUserPage(t, m, ut, 0x2000, false)
		if _, f = ex.Read(0x2000); f != nil {
			t.Fatalf("read of RO page: %v", f)
		}
		f = ex.Write(0x2000, 1)
		if f == nil || f.Kind != FaultProtection || !f.Write {
			t.Fatalf("fault = %v, want protection write fault", f)
		}
		if !strings.Contains(f.Error(), "protection") {
			t.Fatalf("Error() = %q", f.Error())
		}
	})
}

// TestStaleTLBEntryAllowsWrite demonstrates the core problem: after the
// page table is changed, a CPU with a cached entry can still write.
func TestStaleTLBEntryAllowsWrite(t *testing.T) {
	run(t, testOptions(1), func(m *Machine, ex *Exec) {
		ut, _ := ptable.New(m.Phys)
		ex.CPU().SetUserTable(ut, 1)
		mapUserPage(t, m, ut, 0x3000, true)
		if f := ex.Write(0x3000, 1); f != nil {
			t.Fatal(f)
		}
		// Downgrade to read-only in the page table, without TLB action.
		pte, _, _ := ut.Lookup(0x3000)
		ut.Update(0x3000, pte.WithoutFlags(ptable.PTEWritable))
		// The stale cached entry still allows the write.
		if f := ex.Write(0x3000, 2); f != nil {
			t.Fatalf("stale entry should have allowed the write, got %v", f)
		}
		// After invalidating, the write faults.
		ex.InvalidateTLBEntries(1, 0x3000, 0x4000)
		if f := ex.Write(0x3000, 3); f == nil {
			t.Fatal("write after invalidation should fault")
		}
	})
}

// TestBlindWritebackCorruptsPTE shows why flushing before the update is not
// enough: the modify-bit writeback stores the stale cached PTE image back.
func TestBlindWritebackCorruptsPTE(t *testing.T) {
	opts := testOptions(1)
	opts.TLB.Writeback = tlb.WritebackBlind
	run(t, opts, func(m *Machine, ex *Exec) {
		ut, _ := ptable.New(m.Phys)
		ex.CPU().SetUserTable(ut, 1)
		mapUserPage(t, m, ut, 0x3000, true)
		// Load the entry read-only-cleanly: first access is a read, so the
		// modify bit is not yet set.
		if _, f := ex.Read(0x3000); f != nil {
			t.Fatal(f)
		}
		// Invalidate the mapping in the page table (pmap_remove would).
		ut.Update(0x3000, 0)
		// The write sets the modify bit through the stale entry, blindly
		// storing the old PTE image — resurrecting the dead mapping.
		if f := ex.Write(0x3000, 7); f != nil {
			t.Fatal(f)
		}
		pte, _, _ := ut.Lookup(0x3000)
		if !pte.Valid() {
			t.Fatal("expected blind writeback to corrupt the invalidated PTE (resurrect the mapping)")
		}
	})
}

// TestInterlockedWritebackFaults shows the MC88200 fix: the interlocked
// writeback revalidates and faults instead of corrupting.
func TestInterlockedWritebackFaults(t *testing.T) {
	opts := testOptions(1)
	opts.TLB.Writeback = tlb.WritebackInterlocked
	run(t, opts, func(m *Machine, ex *Exec) {
		ut, _ := ptable.New(m.Phys)
		ex.CPU().SetUserTable(ut, 1)
		mapUserPage(t, m, ut, 0x3000, true)
		if _, f := ex.Read(0x3000); f != nil {
			t.Fatal(f)
		}
		ut.Update(0x3000, 0)
		f := ex.Write(0x3000, 7)
		if f == nil || f.Kind != FaultNotPresent {
			t.Fatalf("fault = %v, want not-present from interlocked check", f)
		}
		pte, _, _ := ut.Lookup(0x3000)
		if pte.Valid() {
			t.Fatal("interlocked writeback must not corrupt the PTE")
		}
	})
}

func TestWritebackNoneNeverStores(t *testing.T) {
	opts := testOptions(1)
	opts.TLB.Writeback = tlb.WritebackNone
	run(t, opts, func(m *Machine, ex *Exec) {
		ut, _ := ptable.New(m.Phys)
		ex.CPU().SetUserTable(ut, 1)
		mapUserPage(t, m, ut, 0x3000, true)
		if f := ex.Write(0x3000, 7); f != nil {
			t.Fatal(f)
		}
		pte, _, _ := ut.Lookup(0x3000)
		if pte.Referenced() || pte.Modified() {
			t.Fatalf("R/M bits set in memory with WritebackNone: %v", pte)
		}
		if m.CPU(0).TLB.Stats().Writebacks != 0 {
			t.Fatal("writeback counted with WritebackNone")
		}
	})
}

func TestReferenceModifyBitsSet(t *testing.T) {
	run(t, testOptions(1), func(m *Machine, ex *Exec) {
		ut, _ := ptable.New(m.Phys)
		ex.CPU().SetUserTable(ut, 1)
		mapUserPage(t, m, ut, 0x3000, true)
		if _, f := ex.Read(0x3000); f != nil {
			t.Fatal(f)
		}
		pte, _, _ := ut.Lookup(0x3000)
		if !pte.Referenced() || pte.Modified() {
			t.Fatalf("after read: %v, want R set, M clear", pte)
		}
		if f := ex.Write(0x3000, 1); f != nil {
			t.Fatal(f)
		}
		pte, _, _ = ut.Lookup(0x3000)
		if !pte.Modified() {
			t.Fatalf("after write: %v, want M set", pte)
		}
	})
}

func TestInterruptDelivery(t *testing.T) {
	opts := testOptions(2)
	eng := sim.New(sim.WithMaxTime(1_000_000_000))
	m := New(eng, opts)
	kt, _ := ptable.New(m.Phys)
	m.SetKernelTable(kt)
	var handledAt sim.Time
	var handledOn int
	m.SetHandler(VecIPI, func(ex *Exec, v Vector) {
		handledAt = ex.Now()
		handledOn = ex.CPUID()
	})
	eng.Spawn("target", func(p *sim.Proc) {
		ex := m.Attach(p, 1)
		defer ex.Detach()
		ex.Advance(1_000_000) // 1ms; interrupt arrives during this
	})
	eng.Spawn("sender", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		ex.Advance(100_000)
		ex.SendIPI([]int{1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if handledOn != 1 {
		t.Fatalf("handled on cpu %d, want 1", handledOn)
	}
	if handledAt == 0 || handledAt > 700_000 {
		t.Fatalf("handledAt = %d; interrupt should arrive promptly mid-advance", handledAt)
	}
}

func TestInterruptMaskedUntilRestore(t *testing.T) {
	opts := testOptions(2)
	eng := sim.New(sim.WithMaxTime(1_000_000_000))
	m := New(eng, opts)
	kt, _ := ptable.New(m.Phys)
	m.SetKernelTable(kt)
	var handledAt sim.Time
	m.SetHandler(VecIPI, func(ex *Exec, v Vector) { handledAt = ex.Now() })
	eng.Spawn("target", func(p *sim.Proc) {
		ex := m.Attach(p, 1)
		defer ex.Detach()
		s := ex.DisableAll()
		ex.Advance(1_000_000)
		lowered := ex.Now()
		ex.RestoreIPL(s) // pending IPI delivered here
		if handledAt < lowered {
			t.Errorf("handled at %d while masked (unmasked at %d)", handledAt, lowered)
		}
	})
	eng.Spawn("sender", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		ex.Advance(100_000)
		ex.SendIPI([]int{1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if handledAt == 0 {
		t.Fatal("interrupt never delivered")
	}
}

func TestHighPriorityIPIPunchesThroughDeviceMask(t *testing.T) {
	opts := testOptions(2)
	opts.HighPriorityIPI = true
	eng := sim.New(sim.WithMaxTime(1_000_000_000))
	m := New(eng, opts)
	kt, _ := ptable.New(m.Phys)
	m.SetKernelTable(kt)
	var handledAt sim.Time
	m.SetHandler(VecIPI, func(ex *Exec, v Vector) { handledAt = ex.Now() })
	eng.Spawn("target", func(p *sim.Proc) {
		ex := m.Attach(p, 1)
		defer ex.Detach()
		s := ex.RaiseIPL(IPLDevice) // device interrupts masked
		ex.Advance(1_000_000)
		ex.RestoreIPL(s)
	})
	eng.Spawn("sender", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		ex.Advance(100_000)
		ex.SendIPI([]int{1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if handledAt == 0 || handledAt > 700_000 {
		t.Fatalf("high-priority IPI should punch through device mask; handled at %d", handledAt)
	}
}

func TestPostCoalescing(t *testing.T) {
	run(t, testOptions(3), func(m *Machine, ex *Exec) {
		if m.Post(2, VecIPI) {
			t.Fatal("first post should not be pending")
		}
		if !m.Post(2, VecIPI) {
			t.Fatal("second post should report already pending")
		}
		if !m.CPU(2).Pending(VecIPI) {
			t.Fatal("vector should be latched")
		}
	})
}

func TestSendIPIModes(t *testing.T) {
	for _, mode := range []IPIMode{IPIUnicast, IPIMulticast, IPIBroadcast} {
		opts := testOptions(4)
		opts.IPIMode = mode
		run(t, opts, func(m *Machine, ex *Exec) {
			ex.SendIPI([]int{1, 2})
			if !m.CPU(1).Pending(VecIPI) || !m.CPU(2).Pending(VecIPI) {
				t.Errorf("%v: targets not pending", mode)
			}
			if mode == IPIBroadcast {
				if !m.CPU(3).Pending(VecIPI) {
					t.Errorf("broadcast should hit cpu 3 too")
				}
			} else if m.CPU(3).Pending(VecIPI) {
				t.Errorf("%v: cpu 3 should not be pending", mode)
			}
			if m.CPU(0).Pending(VecIPI) {
				t.Errorf("%v: sender must not interrupt itself", mode)
			}
		})
	}
}

func TestSpinLockMutualExclusionAndIPL(t *testing.T) {
	opts := testOptions(2)
	eng := sim.New(sim.WithMaxTime(10_000_000_000))
	m := New(eng, opts)
	kt, _ := ptable.New(m.Phys)
	m.SetKernelTable(kt)
	lock := &SpinLock{Name: "test", MinIPL: IPLDevice}
	inCrit := false
	crit := func(ex *Exec) {
		prev := lock.Lock(ex)
		if inCrit {
			t.Error("mutual exclusion violated")
		}
		if ex.CPU().IPL() < IPLDevice {
			t.Error("IPL not raised while holding lock")
		}
		inCrit = true
		ex.Advance(50_000)
		inCrit = false
		lock.Unlock(ex, prev)
	}
	for i := 0; i < 2; i++ {
		cpu := i
		eng.Spawn("locker", func(p *sim.Proc) {
			ex := m.Attach(p, cpu)
			defer ex.Detach()
			for j := 0; j < 10; j++ {
				crit(ex)
				ex.Advance(1_000)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if lock.Held() {
		t.Fatal("lock leaked")
	}
}

func TestSpinLockMisusePanics(t *testing.T) {
	run(t, testOptions(1), func(m *Machine, ex *Exec) {
		l := &SpinLock{Name: "x"}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unlock of unheld lock should panic")
				}
			}()
			l.Unlock(ex, IPLLow)
		}()
	})
}

func TestBusContentionSerializes(t *testing.T) {
	b := NewBus(600)
	// Two back-to-back reservations at the same instant queue up.
	w1 := b.Reserve(0, 1)
	w2 := b.Reserve(0, 1)
	if w1 != 600 || w2 != 1200 {
		t.Fatalf("waits = %d,%d; want 600,1200", w1, w2)
	}
	// After the bus drains, no queueing.
	w3 := b.Reserve(10_000, 1)
	if w3 != 600 {
		t.Fatalf("w3 = %d, want 600", w3)
	}
	if b.Transactions != 3 {
		t.Fatalf("transactions = %d", b.Transactions)
	}
	if u := b.Utilization(10_600); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
	if b.Reserve(0, 0) != 0 {
		t.Fatal("zero transactions should cost nothing")
	}
}

func TestRemoteInvalidate(t *testing.T) {
	opts := testOptions(2)
	opts.RemoteInvalidate = true
	run(t, opts, func(m *Machine, ex *Exec) {
		m.CPU(1).TLB.Insert(0x3000, tlb.ASIDNone, ptable.Make(5, true))
		ex.RemoteInvalidate(1, tlb.ASIDNone, 0x3000, 0x4000)
		if m.CPU(1).TLB.Len() != 0 {
			t.Fatal("remote invalidate did not remove the entry")
		}
	})
}

func TestRemoteInvalidateUnsupportedPanics(t *testing.T) {
	run(t, testOptions(2), func(m *Machine, ex *Exec) {
		defer func() {
			if recover() == nil {
				t.Error("want panic without hardware support")
			}
		}()
		ex.RemoteInvalidate(1, tlb.ASIDNone, 0, 0x1000)
	})
}

func TestFlushTLBAndASID(t *testing.T) {
	opts := testOptions(1)
	opts.TLB.Tagged = true
	run(t, opts, func(m *Machine, ex *Exec) {
		m.CPU(0).TLB.Insert(0x1000, 1, ptable.Make(1, true))
		m.CPU(0).TLB.Insert(0x2000, 2, ptable.Make(2, true))
		ex.FlushTLBASID(1)
		if m.CPU(0).TLB.Len() != 1 {
			t.Fatalf("Len = %d after FlushTLBASID", m.CPU(0).TLB.Len())
		}
		ex.FlushTLB()
		if m.CPU(0).TLB.Len() != 0 {
			t.Fatal("FlushTLB left entries")
		}
	})
}

func TestStringers(t *testing.T) {
	for _, v := range []Vector{VecIPI, VecTimer, VecDevice, Vector(9)} {
		if v.String() == "" {
			t.Fatal("empty Vector string")
		}
	}
	for _, mo := range []IPIMode{IPIUnicast, IPIMulticast, IPIBroadcast, IPIMode(9)} {
		if mo.String() == "" {
			t.Fatal("empty IPIMode string")
		}
	}
	for _, k := range []FaultKind{FaultNotPresent, FaultProtection, FaultNoSpace, FaultKind(9)} {
		if k.String() == "" {
			t.Fatal("empty FaultKind string")
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	eng := sim.New()
	m := New(eng, Options{})
	if m.NumCPUs() != 16 {
		t.Fatalf("default NumCPUs = %d", m.NumCPUs())
	}
	if m.Costs().IPISend == 0 {
		t.Fatal("default costs not applied")
	}
	if m.VectorPriority(VecIPI) != IPLDevice {
		t.Fatal("default IPI priority should be device level")
	}
	m2 := New(sim.New(), Options{HighPriorityIPI: true})
	if m2.VectorPriority(VecIPI) != IPLHigh {
		t.Fatal("HighPriorityIPI should raise the vector priority")
	}
}

// TestReadAllocatesNothing pins a simulated load, TLB hit and hardware
// reload, at zero host allocations. With a one-entry TLB, alternating two
// pages makes every read a reload.
func TestReadAllocatesNothing(t *testing.T) {
	opts := testOptions(1)
	opts.TLB.Size = 1
	run(t, opts, func(m *Machine, ex *Exec) {
		va := KernelBase + 0x4000
		for i := ptable.VAddr(0); i < 2; i++ {
			f, _ := m.Phys.AllocFrame()
			if err := m.KernelTable().Enter(va+i*mem.PageSize, ptable.Make(f, true)); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range []struct {
			name  string
			pages ptable.VAddr
		}{{"hit", 1}, {"reload", 2}} {
			var i ptable.VAddr
			read := func() {
				if _, fault := ex.Read(va + i%tc.pages*mem.PageSize); fault != nil {
					t.Fatalf("fault: %v", fault)
				}
				i++
			}
			read() // load the page the hit case reads
			misses := m.CPU(0).TLB.Stats().Misses
			if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
				t.Errorf("%s: %v allocations per Read, want 0", tc.name, allocs)
			}
			if reloaded := m.CPU(0).TLB.Stats().Misses > misses; reloaded != (tc.pages > 1) {
				t.Errorf("%s: TLB reloads %v, want %v", tc.name, reloaded, tc.pages > 1)
			}
		}
	})
}
