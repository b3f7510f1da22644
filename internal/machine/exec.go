package machine

import (
	"fmt"

	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
)

// Exec is an execution context: a sim proc bound to a CPU. All virtual-time
// charging, interrupt delivery, and MMU-mediated memory access flow through
// it. A CPU has at most one Exec at a time; the kernel attaches one when it
// dispatches a thread (or the idle loop) onto the processor.
type Exec struct {
	machine *Machine
	cpu     *CPU
	proc    *sim.Proc
}

// Attach binds proc to CPU cpuID and returns the execution context.
// It panics if the CPU is already occupied or offline.
func (m *Machine) Attach(proc *sim.Proc, cpuID int) *Exec {
	cpu := m.cpus[cpuID]
	if cpu.state != CPUOnline {
		panic(fmt.Sprintf("machine: attach to offline cpu %d", cpuID))
	}
	if cpu.cur != nil {
		panic(fmt.Sprintf("machine: cpu %d already occupied by proc %q", cpuID, cpu.cur.proc.Name()))
	}
	ex := &Exec{machine: m, cpu: cpu, proc: proc}
	cpu.cur = ex
	return ex
}

// Detach releases the CPU. Pending interrupts stay latched on the CPU and
// will be delivered to the next context attached there.
func (ex *Exec) Detach() {
	if ex.cpu.cur != ex {
		panic(fmt.Sprintf("machine: detach of non-current exec on cpu %d", ex.cpu.id))
	}
	ex.cpu.cur = nil
}

func (ex *Exec) m() *Machine { return ex.machine }

// Closed reports whether the exec's world has been closed
// (sim.Engine.Close). Closing unwinds every suspended proc, running its
// deferred calls; a simulated call that defers work checks Closed first,
// so that unwinding charges nothing and changes no state.
func (ex *Exec) Closed() bool { return ex.machine.Eng.Closed() }

// Proc returns the underlying sim proc.
func (ex *Exec) Proc() *sim.Proc { return ex.proc }

// CPU returns the bound processor.
func (ex *Exec) CPU() *CPU { return ex.cpu }

// CPUID returns the bound processor's number.
func (ex *Exec) CPUID() int { return ex.cpu.id }

// Now returns the current virtual time (the free-running timestamp counter
// the paper's instrumentation reads).
func (ex *Exec) Now() sim.Time { return ex.machine.Eng.Now() }

// Advance consumes d of virtual time, delivering any deliverable pending
// interrupts at the block boundaries (before, during via preemption, and
// after).
func (ex *Exec) Advance(d sim.Time) {
	ex.deliver()
	for d > 0 {
		slept := ex.proc.Sleep(d)
		d -= slept
		ex.deliver()
	}
}

// advanceNoIRQ consumes d of virtual time without delivering interrupts
// (used for atomic hardware actions like interrupt entry; a bus stall's
// transactions sleep the same way in its loop). Preemption nudges are
// absorbed; pending vectors stay latched.
func (ex *Exec) advanceNoIRQ(d sim.Time) {
	for d > 0 {
		d -= ex.proc.Sleep(d)
	}
}

// charge consumes a jittered cost without interrupt delivery.
func (ex *Exec) charge(c sim.Time) {
	ex.advanceNoIRQ(ex.machine.jitter(c))
}

// ChargeInstr consumes one bookkeeping-operation cost. Kernel code paths
// call this to account for work on structures not simulated in physical
// memory.
func (ex *Exec) ChargeInstr() { ex.charge(ex.machine.costs.Instr) }

// ChargeBusWrites stalls for n write-through store transactions. Kernel
// code uses it when it stores to simulated physical memory directly (e.g.
// the pmap module rewriting PTEs).
func (ex *Exec) ChargeBusWrites(n int) { ex.busStall("kernel-store", n) }

// ChargeTime consumes an arbitrary (jittered) cost without interrupt
// delivery. Kernel layers use it for costs from the machine's cost model
// that have no dedicated helper (page zeroing, fault overhead, ...).
func (ex *Exec) ChargeTime(t sim.Time) { ex.charge(t) }

// deliver services deliverable pending interrupts until none remain.
func (ex *Exec) deliver() {
	for {
		v, ok := ex.cpu.takeDeliverable()
		if !ok {
			return
		}
		ex.runHandler(v)
	}
}

// runHandler performs interrupt entry (auto-masking at the vector's
// priority, state save with its bus traffic), runs the handler, and returns.
func (ex *Exec) runHandler(v Vector) {
	c := ex.cpu
	m := ex.machine
	prev := c.ipl
	if m.prio[v] > c.ipl {
		c.ipl = m.prio[v]
	}
	ex.maskEdge(prev, c.ipl)
	m.Tracer().Emit(irqKinds[v], int64(ex.Now()), c.id, irqNames[v], int64(prev), 0)
	ex.busStall("irq-save", m.costs.IRQDispatchBusWrites)
	ex.charge(m.costs.IRQDispatch)
	if h := m.handlers[v]; h != nil {
		h(ex, v)
	}
	ex.charge(m.costs.IRQReturn)
	raised := c.ipl
	c.ipl = prev
	ex.maskEdge(raised, prev)
	m.Tracer().End(int64(ex.Now()), c.id, trace.CatMachine, irqNames[v])
}

// maskEdge emits a mask edge when the CPU's IPL crosses the shootdown
// vector's priority: the profiler's masked phase covers exactly the
// intervals during which a posted shootdown IPI cannot be delivered —
// the paper's "masked interval" responder cost.
func (ex *Exec) maskEdge(old, cur IPL) {
	if ipi := ex.machine.prio[VecIPI]; (old < ipi) != (cur < ipi) {
		ex.machine.Tracer().Emit(trace.KindMask, int64(ex.Now()), ex.cpu.id, "", int64(cur), int64(ipi))
	}
}

// RaiseIPL lifts the CPU's IPL to at least l and returns the previous
// level. Lowering is not permitted here; use RestoreIPL.
func (ex *Exec) RaiseIPL(l IPL) IPL {
	prev := ex.cpu.ipl
	if l > ex.cpu.ipl {
		ex.cpu.ipl = l
		ex.machine.Tracer().Instant(int64(ex.Now()), ex.cpu.id, trace.CatMachine, "ipl-raise", int64(l), int64(prev))
		ex.maskEdge(prev, l)
	}
	return prev
}

// RestoreIPL sets the IPL back to a previously saved level and delivers any
// interrupts the lowering unmasked.
func (ex *Exec) RestoreIPL(l IPL) {
	if ex.lowerIPL(l) {
		ex.deliver()
	}
}

// lowerIPL is RestoreIPL without the delivery: it sets the IPL to l and
// reports whether that lowered it, in which case the caller owes a
// delivery point.
func (ex *Exec) lowerIPL(l IPL) bool {
	lowering := l < ex.cpu.ipl
	if lowering {
		ex.machine.Tracer().Instant(int64(ex.Now()), ex.cpu.id, trace.CatMachine, "ipl-lower", int64(l), int64(ex.cpu.ipl))
		ex.maskEdge(ex.cpu.ipl, l)
	}
	ex.cpu.ipl = l
	return lowering
}

// DisableAll masks all interrupts (the pseudo-code's disable_interrupts)
// and returns the previous level for RestoreIPL.
func (ex *Exec) DisableAll() IPL { return ex.RaiseIPL(IPLHigh) }

// Stall consumes exactly d of virtual time without interrupt delivery and
// without cost jitter (no simulation randomness). The fault injector's
// slow-responder stalls go through this so an injected delay is charged
// as-is and fault campaigns replay exactly.
func (ex *Exec) Stall(d sim.Time) { ex.advanceNoIRQ(d) }

// SendIPI posts shootdown interrupts to the target CPUs using the machine's
// configured delivery hardware, charging the initiator accordingly.
// It skips targets whose IPI is already pending (coalescing).
func (ex *Exec) SendIPI(targets []int) {
	m := ex.machine
	m.Tracer().Instant(int64(ex.Now()), ex.cpu.id, trace.CatMachine, "ipi-send", int64(len(targets)), int64(m.opts.IPIMode))
	switch m.opts.IPIMode {
	case IPIMulticast:
		ex.charge(m.costs.IPIMulticastBase)
		ex.busStall("ipi-send", 1)
		for _, t := range targets {
			ex.charge(m.costs.IPIMulticastPerTarget)
			ex.postIPI(t)
		}
	case IPIBroadcast:
		ex.charge(m.costs.IPIMulticastBase)
		ex.busStall("ipi-send", 1)
		for i := range m.cpus {
			if i != ex.cpu.id {
				ex.postIPI(i)
			}
		}
	default: // IPIUnicast: one device-register write per target, serially
		for _, t := range targets {
			ex.charge(m.costs.IPISend)
			ex.busStall("ipi-send", 1)
			ex.postIPI(t)
		}
	}
	// Glitchy interrupt hardware occasionally raises a shootdown interrupt
	// on a processor nobody aimed at; the responder must tolerate finding
	// no work. The sender is charged nothing — the fault is in the wires.
	if t, ok := m.faults.SpuriousTarget(ex.cpu.id, len(m.cpus)); ok {
		m.Tracer().Instant(int64(ex.Now()), t, trace.CatMachine, "ipi-spurious", int64(ex.cpu.id), 0)
		m.Post(t, VecIPI)
	}
}

// postIPI delivers one shootdown interrupt, consulting the fault injector:
// the IPI may be silently dropped (never latched, so the target's pending
// flag stays clear and a watchdog retry will re-send) or latched with a
// delivery delay.
func (ex *Exec) postIPI(t int) {
	m := ex.machine
	drop, delay := m.faults.OnIPI(ex.cpu.id, t)
	if drop {
		m.Tracer().Instant(int64(ex.Now()), t, trace.CatMachine, "ipi-drop", int64(ex.cpu.id), 0)
		return
	}
	if delay > 0 {
		m.Tracer().Instant(int64(ex.Now()), t, trace.CatMachine, "ipi-delay", int64(delay), 0)
	}
	m.PostAfter(t, VecIPI, delay)
}

// InvalidateTLBEntries drops the entries for pages in [start, end) from
// this CPU's TLB, one invalidate at a time, charging per page in the range.
func (ex *Exec) InvalidateTLBEntries(asid tlb.ASID, start, end ptable.VAddr) {
	for va := start.Page(); va < end; {
		ex.charge(ex.machine.costs.TLBInvalidateEntry)
		ex.cpu.TLB.InvalidatePage(va, asid)
		next := va + mem.PageSize
		if next <= va { // wrapped past the top of the address space
			break
		}
		va = next
	}
}

// FlushTLB empties this CPU's entire TLB.
func (ex *Exec) FlushTLB() {
	ex.charge(ex.machine.costs.TLBFlushAll)
	ex.cpu.TLB.Flush()
}

// FlushTLBASID drops all entries for one address space (tagged TLBs).
func (ex *Exec) FlushTLBASID(asid tlb.ASID) {
	ex.charge(ex.machine.costs.TLBFlushAll)
	ex.cpu.TLB.FlushASID(asid)
}

// RemoteInvalidate invalidates entries in another CPU's TLB directly,
// without involving that CPU — hardware the MC88200 provides (§9). It
// panics unless the machine was configured with RemoteInvalidate.
func (ex *Exec) RemoteInvalidate(target int, asid tlb.ASID, start, end ptable.VAddr) {
	if !ex.machine.opts.RemoteInvalidate {
		panic("machine: RemoteInvalidate used without hardware support configured")
	}
	t := ex.machine.cpus[target].TLB
	for va := start.Page(); va < end; {
		ex.charge(ex.machine.costs.TLBInvalidateEntry)
		ex.busStall("remote-inval", 1)
		t.InvalidatePage(va, asid)
		next := va + mem.PageSize
		if next <= va {
			break
		}
		va = next
	}
}

// Read performs a load from virtual address va through the MMU.
func (ex *Exec) Read(va ptable.VAddr) (uint32, *Fault) {
	pte, f := ex.translate(va, false)
	if f != nil {
		return 0, f
	}
	return ex.load(pte, va), nil
}

// Write performs a store to virtual address va through the MMU. With the
// write-through caches modeled here, every store is a bus transaction.
func (ex *Exec) Write(va ptable.VAddr, v uint32) *Fault {
	pte, f := ex.translate(va, true)
	if f != nil {
		return f
	}
	ex.store(pte, va, v)
	return nil
}

// load charges a memory read and loads the word va maps to through pte.
func (ex *Exec) load(pte ptable.PTE, va ptable.VAddr) uint32 {
	ex.charge(ex.machine.costs.MemRead)
	return ex.machine.Phys.ReadWord(pte.Frame().Addr(va.Offset()))
}

// store stalls for a store's bus transaction and stores v to the word va
// maps to through pte.
func (ex *Exec) store(pte ptable.PTE, va ptable.VAddr, v uint32) {
	ex.busStall("store", 1)
	ex.machine.Phys.WriteWord(pte.Frame().Addr(va.Offset()), v)
}

// translate resolves va for an access, modeling the TLB probe, hardware
// reload on miss, protection check, and reference/modify-bit writeback.
//
// Crucially, a *stale but cached* TLB entry grants whatever access it
// caches, regardless of the current page-table contents — the hardware
// behaviour that makes TLB consistency a software problem. Only the
// shootdown (or an alternative strategy) removes such entries.
func (ex *Exec) translate(va ptable.VAddr, write bool) (ptable.PTE, *Fault) {
	c := ex.cpu
	table, asid := c.tableFor(va)
	if table == nil {
		return 0, &Fault{VA: va, Write: write, Kind: FaultNoSpace}
	}
	ex.charge(ex.machine.costs.TLBProbe)
	e, hit := c.TLB.Probe(va, asid)
	return ex.probed(table, asid, va, write, e, hit)
}

// needFlags returns the reference/modify bits an access must write back
// before a cached pte may grant it.
func needFlags(pte ptable.PTE, write bool) ptable.PTE {
	var need ptable.PTE
	if !pte.Referenced() {
		need |= ptable.PTEReferenced
	}
	if write && !pte.Modified() {
		need |= ptable.PTEModified
	}
	return need
}

// probed finishes translate once the TLB has been probed for va: e is
// the entry the probe found, if hit.
func (ex *Exec) probed(table *ptable.Table, asid tlb.ASID, va ptable.VAddr, write bool, e tlb.Entry, hit bool) (ptable.PTE, *Fault) {
	c := ex.cpu
	m := ex.machine
	if hit {
		if write && !e.PTE.Writable() {
			return 0, &Fault{VA: va, Write: true, Kind: FaultProtection}
		}
		need := needFlags(e.PTE, write)
		if need != 0 {
			if f := ex.writeback(table, va, asid, e, need); f != nil {
				return 0, f
			}
		}
		ex.use(table, asid, va, write, e.PTE)
		return e.PTE.WithFlags(need), nil
	}

	// Hardware reload: walk the two-level table in physical memory.
	ex.charge(m.costs.TLBWalk)
	ex.busStall("pte-walk", 2) // directory read + PTE read
	pte, pteAddr, ok := table.Lookup(va)
	if !ok || !pte.Valid() {
		return 0, &Fault{VA: va, Write: write, Kind: FaultNotPresent}
	}
	flags := ptable.PTE(0)
	if m.opts.TLB.Writeback != tlb.WritebackNone {
		flags = ptable.PTEReferenced
		if write && pte.Writable() {
			flags |= ptable.PTEModified
		}
		ex.busStall("pte-writeback", 1)
		m.Phys.WriteWord(pteAddr, uint32(pte.WithFlags(flags)))
		c.TLB.CountWriteback()
	}
	c.TLB.Insert(va, asid, pte.WithFlags(flags))
	if m.mmuObs != nil {
		m.mmuObs.OnTLBInsert(c.id, va, asid, pte.WithFlags(flags), table)
	}
	if write && !pte.Writable() {
		return 0, &Fault{VA: va, Write: true, Kind: FaultProtection}
	}
	return pte.WithFlags(flags), nil
}

// use reports to the MMU observer that a cached entry, pte, is about to
// grant an access — the moment a stale translation becomes an observable
// consistency violation.
func (ex *Exec) use(table *ptable.Table, asid tlb.ASID, va ptable.VAddr, write bool, pte ptable.PTE) {
	if o := ex.machine.mmuObs; o != nil {
		o.OnTLBUse(ex.cpu.id, va, asid, pte, table, write)
	}
}

// writeback stores reference/modify bits for a cached entry into the PTE in
// memory, per the configured policy. Blind writeback stores the *cached*
// PTE image plus the new bits — if the page table changed underneath, this
// resurrects the stale mapping in memory, which is exactly the corruption
// Section 3 describes and why responders must be stalled during updates.
func (ex *Exec) writeback(table *ptable.Table, va ptable.VAddr, asid tlb.ASID, e tlb.Entry, need ptable.PTE) *Fault {
	c := ex.cpu
	m := ex.machine
	switch m.opts.TLB.Writeback {
	case tlb.WritebackNone:
		// No bits are ever stored; cache them so we stop asking.
		c.TLB.UpdateFlags(va, asid, need)
		return nil
	case tlb.WritebackInterlocked:
		// MC88200: interlocked read-modify-write with a validity check.
		ex.busStall("pte-writeback", 2) // locked read + conditional write
		cur, addr, ok := table.Lookup(va)
		if !ok || !cur.Valid() || cur.Frame() != e.PTE.Frame() {
			// The mapping changed; the entry must not be used and a
			// page fault must occur (Section 9, footnote 6).
			c.TLB.InvalidatePage(va, asid)
			return &Fault{VA: va, Write: need&ptable.PTEModified != 0, Kind: FaultNotPresent}
		}
		m.Phys.WriteWord(addr, uint32(cur.WithFlags(need)))
		c.TLB.CountWriteback()
		c.TLB.UpdateFlags(va, asid, need)
		return nil
	default: // tlb.WritebackBlind — NS32382-style
		ex.busStall("pte-writeback", 1)
		if addr, ok := table.PTEAddr(va); ok {
			m.Phys.WriteWord(addr, uint32(e.PTE.WithFlags(need)))
			c.TLB.CountWriteback()
		}
		c.TLB.UpdateFlags(va, asid, need)
		return nil
	}
}
