// Package pmap implements the machine-dependent physical map module of the
// Mach VM system (Section 2 of the paper): the single module that talks to
// the memory-management hardware and within which TLB consistency is
// confined — an instance of policy/mechanism separation. The machine-
// independent VM layer (package vm) invokes validate/invalidate/protect
// operations on address ranges; the pmap module decides when those require
// consistency actions and invokes the configured core.Strategy.
//
// Lazy evaluation (Section 7.2) is implemented at two levels, matching the
// Multimax pmap module:
//
//   - The full check: a shootdown is skipped when no page in the affected
//     range is actually mapped, because TLBs do not cache invalid mappings.
//     This is the check the paper disables to produce Table 1.
//   - The structural check: a missing second-level page table proves an
//     entire 4 MB chunk is unmapped and is skipped wholesale. This remains
//     even when the full check is disabled, as in the paper.
package pmap

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/tlb"
)

// Prot is a page protection.
type Prot uint8

// Protections.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
	ProtRW    Prot = ProtRead | ProtWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtWrite:
		return "-w-"
	case ProtRW:
		return "rw-"
	default:
		return fmt.Sprintf("prot(%d)", uint8(p))
	}
}

// CanWrite reports whether the protection permits stores.
func (p Prot) CanWrite() bool { return p&ProtWrite != 0 }

// CanRead reports whether the protection permits loads.
func (p Prot) CanRead() bool { return p&ProtRead != 0 }

// Stats counts pmap-module events.
type Stats struct {
	Enters           uint64
	Removes          uint64
	Protects         uint64
	Destroys         uint64
	Activations      uint64
	Deactivations    uint64
	SyncsInvoked     uint64 // consistency actions handed to the strategy
	LazySkips        uint64 // shootdowns avoided by the valid-mapping check
	StructuralSkips  uint64 // ops whose range had no second-level tables
	NotInUseSkips    uint64 // shootdowns avoided: pmap in use nowhere
	PagesRemoved     uint64
	PagesReprotected uint64
}

// System is the pmap module's shared state: the kernel pmap, the
// consistency strategy, and the lazy-evaluation switch.
type System struct {
	M        *machine.Machine //snap:derived wiring to the machine, re-established when the world is rebuilt for replay
	Strategy core.Strategy    //snap:derived wiring to the consistency strategy, reinstalled by the kernel at construction

	// Kernel is the kernel pmap, in use on every processor.
	Kernel *Pmap

	// LazyDisabled turns off the valid-mapping check before shootdowns
	// (the Table 1 ablation). The structural page-table-chunk check
	// remains, as it did in the paper's experiment.
	//snap:derived configuration, reapplied from the experiment config on replay
	LazyDisabled bool

	// LazyASIDRelease enables the Section 10 extension for ASID-tagged
	// TLBs: deactivation leaves a space's entries cached (no flush at
	// context switch) and the pmap is considered in use on the processor
	// until its entries are explicitly flushed — by a later shootdown,
	// which then flushes the whole space and releases it. Requires a
	// tagged TLB.
	//snap:derived configuration, reapplied from the experiment config on replay
	LazyASIDRelease bool

	// TableHook, when set, observes every page table the system creates
	// after the hook is installed (the consistency oracle registers its
	// shadow here; the kernel table predates the hook and is tracked
	// directly by the installer).
	//snap:transient observation hook (the oracle's shadow registration), reattached by the session
	TableHook func(t *ptable.Table, asid tlb.ASID, kernel bool)

	activeUser  []*Pmap // per-CPU active user pmap
	nextASID    tlb.ASID
	kernelPools []KernelPool //snap:derived static pool map, reinstalled by ConfigureKernelPools on replay
	stats       Stats
	// users records every user pmap ever created, in ASID order, so
	// snapshots can walk maps that are live but not active anywhere
	// (blocked threads, lazily-released tagged spaces).
	users []*Pmap
}

// envAware is implemented by strategies that need the pmap environment
// (the Mach shootdown and some baselines).
type envAware interface {
	SetKernelPmap(core.Pmap)
	SetUserPmapFn(func(cpu int) core.Pmap)
}

// deviceAware is implemented by strategies that accept device-TLB
// participants (the Mach shootdown; baselines without a membership
// protocol cannot keep a device consistent and simply never see it).
type deviceAware interface {
	RegisterDevice(core.DeviceTLB, core.Pmap)
}

// NewSystem creates the pmap module, builds the kernel pmap, installs its
// page table as the machine's kernel translation root, and wires the
// strategy's environment.
func NewSystem(m *machine.Machine, strat core.Strategy) (*System, error) {
	sys := &System{
		M:          m,
		Strategy:   strat,
		activeUser: make([]*Pmap, m.NumCPUs()),
		nextASID:   1,
	}
	kt, err := ptable.New(m.Phys)
	if err != nil {
		return nil, fmt.Errorf("pmap: kernel page table: %w", err)
	}
	m.SetKernelTable(kt)
	sys.Kernel = &Pmap{
		sys:    sys,
		Table:  kt,
		kernel: true,
		asid:   tlb.ASIDNone,
		lock:   machine.SpinLock{Name: "pmap:kernel", MinIPL: m.VectorPriority(machine.VecIPI)},
	}
	if ea, ok := strat.(envAware); ok {
		ea.SetKernelPmap(sys.Kernel)
		ea.SetUserPmapFn(func(cpu int) core.Pmap {
			if p := sys.activeUser[cpu]; p != nil {
				return p
			}
			return nil
		})
	}
	return sys, nil
}

// Stats returns a snapshot of the module counters.
func (sys *System) Stats() Stats { return sys.stats }

// AttachDevice points a device's MMU at the pmap's page table and
// registers it with the consistency strategy as a shootdown participant.
// Baseline strategies that cannot keep a device consistent simply never
// learn about it (the device still translates; consistency is then on the
// caller, which is the point of the comparison).
func (sys *System) AttachDevice(d *machine.Device, pm *Pmap) {
	if d == nil || pm == nil {
		return
	}
	d.SetTable(pm.Table, pm.asid)
	pm.devices = append(pm.devices, d)
	if da, ok := sys.Strategy.(deviceAware); ok {
		da.RegisterDevice(d, pm)
	}
}

// ActiveUser returns the user pmap active on the CPU, or nil.
func (sys *System) ActiveUser(cpu int) *Pmap { return sys.activeUser[cpu] }

// Pmap is one physical map: a two-level page table plus the consistency
// bookkeeping (the update lock and the set of processors using the map).
type Pmap struct {
	sys    *System
	Table  *ptable.Table
	lock   machine.SpinLock
	asid   tlb.ASID
	kernel bool
	inUse  []bool // user pmaps only; the kernel pmap is in use everywhere

	// devices lists the device MMUs translating through this map. An
	// attached device keeps the map "in use" for lazy evaluation even
	// when no processor has it active — its IOTLB caches entries that a
	// permission reduction must reach.
	devices []*machine.Device

	destroyed bool
}

var _ core.Pmap = (*Pmap)(nil)

// NewUser creates an empty user pmap.
func (sys *System) NewUser() (*Pmap, error) {
	t, err := ptable.New(sys.M.Phys)
	if err != nil {
		return nil, fmt.Errorf("pmap: user page table: %w", err)
	}
	asid := sys.nextASID
	sys.nextASID++
	if sys.TableHook != nil {
		sys.TableHook(t, asid, false)
	}
	pm := &Pmap{
		sys:   sys,
		Table: t,
		asid:  asid,
		inUse: make([]bool, sys.M.NumCPUs()),
		lock:  machine.SpinLock{Name: fmt.Sprintf("pmap:%d", asid), MinIPL: sys.M.VectorPriority(machine.VecIPI)},
	}
	sys.users = append(sys.users, pm)
	return pm, nil
}

// PmapSnap is one physical map's consistency bookkeeping in wire form.
type PmapSnap struct {
	ASID      uint16 `json:"asid"`
	Kernel    bool   `json:"kernel,omitempty"`
	Destroyed bool   `json:"destroyed,omitempty"`
	// InUse lists the CPUs translating through the map, ascending.
	InUse []int `json:"in_use,omitempty"`
	// ActiveOn lists the CPUs where this is the active user pmap.
	ActiveOn []int `json:"active_on,omitempty"`
	// Devices lists the attached device MMUs, in attach order.
	Devices      []int  `json:"devices,omitempty"`
	LockHeld     bool   `json:"lock_held,omitempty"`
	LockOwner    int    `json:"lock_owner,omitempty"`
	LockOwnerInc uint64 `json:"lock_owner_inc,omitempty"`
}

// Snap is the pmap module's state in wire form (DESIGN.md §14): the ASID
// allocator, the module counters, and every pmap's lock/membership state
// in ASID order. Page-table contents live in physical memory and are
// covered by the machine layer's memory digest.
type Snap struct {
	NextASID uint16     `json:"next_asid"`
	Stats    Stats      `json:"stats"`
	Kernel   PmapSnap   `json:"kernel"`
	Users    []PmapSnap `json:"users,omitempty"`
}

// Snapshot captures the module's complete bookkeeping state in a fixed
// wire order.
func (sys *System) Snapshot() Snap {
	s := Snap{
		NextASID: uint16(sys.nextASID),
		Stats:    sys.stats,
		Kernel:   sys.Kernel.snap(),
	}
	for _, pm := range sys.users {
		s.Users = append(s.Users, pm.snap())
	}
	return s
}

// snap captures one pmap's wire form.
func (pm *Pmap) snap() PmapSnap {
	ps := PmapSnap{ASID: uint16(pm.asid), Kernel: pm.kernel, Destroyed: pm.destroyed}
	for cpu, u := range pm.inUse {
		if u {
			ps.InUse = append(ps.InUse, cpu)
		}
	}
	for cpu, ap := range pm.sys.activeUser {
		if ap == pm {
			ps.ActiveOn = append(ps.ActiveOn, cpu)
		}
	}
	for _, d := range pm.devices {
		ps.Devices = append(ps.Devices, d.ID())
	}
	if owner, inc, held := pm.lock.Owner(); held {
		ps.LockHeld, ps.LockOwner, ps.LockOwnerInc = true, owner, inc
	}
	return ps
}

// Locked implements core.Pmap.
func (pm *Pmap) Locked() bool { return pm.lock.Holds() }

// UpdateInProgress implements core.Pmap: the lock is held by a processor
// that is still alive in the incarnation that acquired it. A fail-stopped
// initiator's lock reports false — its partial update is frozen, not in
// progress, and responders must not stall on it.
func (pm *Pmap) UpdateInProgress() bool { return pm.lock.HeldLive(pm.sys.M) }

// InUse implements core.Pmap: the kernel pmap is in use on every processor
// (the kernel is a multi-threaded task potentially executing everywhere).
func (pm *Pmap) InUse(cpu int) bool {
	if pm.kernel {
		return true
	}
	return pm.inUse[cpu]
}

// ASID implements core.Pmap.
func (pm *Pmap) ASID() tlb.ASID { return pm.asid }

// IsKernel implements core.Pmap.
func (pm *Pmap) IsKernel() bool { return pm.kernel }

// Destroyed reports whether Destroy has run (pmaps can be destroyed at
// runtime and are reconstructed from scratch by page faults).
func (pm *Pmap) Destroyed() bool { return pm.destroyed }

// inUseAnywhere reports whether any processor or attached device
// translates through this map.
func (pm *Pmap) inUseAnywhere() bool {
	if pm.kernel {
		return true
	}
	for _, u := range pm.inUse {
		if u {
			return true
		}
	}
	for _, d := range pm.devices {
		if d.Online() {
			return true
		}
	}
	return false
}

// needsSync decides whether a permission-reducing change to [start, end)
// requires a consistency action, applying lazy evaluation. Must be called
// with the pmap locked. The full check costs "approximately 2 instructions
// per check" in the paper; here one bounded structural walk.
func (pm *Pmap) needsSync(ex *machine.Exec, start, end ptable.VAddr) bool {
	if !pm.inUseAnywhere() {
		pm.sys.stats.NotInUseSkips++
		return false
	}
	ex.ChargeInstr()
	if !pm.sys.LazyDisabled {
		if !pm.Table.AnyValid(start, end) {
			pm.sys.stats.LazySkips++
			return false
		}
		return true
	}
	// Lazy disabled: only the structural second-level-chunk knowledge
	// remains (the paper could not remove it without distorting the
	// applications).
	for va := start.Page(); va < end; {
		if pm.Table.SecondLevelPresent(va) {
			return true
		}
		next := (va &^ (ptable.SpanSecondLevel - 1)) + ptable.SpanSecondLevel
		if next <= va {
			break
		}
		va = next
	}
	pm.sys.stats.StructuralSkips++
	return false
}

// sync invokes the strategy with the pmap locked.
func (pm *Pmap) sync(ex *machine.Exec, op *core.Op, start, end ptable.VAddr) {
	pm.sys.stats.SyncsInvoked++
	pm.sys.Strategy.Sync(ex, op, pm, start, end)
}

// Enter validates a mapping from va to frame with the given protection,
// constructing second-level tables as needed. Replacing a valid mapping
// with a different frame or reduced permissions requires a consistency
// action; installing into an invalid slot (the common fault path) does
// not, because TLBs do not cache invalid mappings.
func (pm *Pmap) Enter(ex *machine.Exec, va ptable.VAddr, frame mem.Frame, prot Prot) error {
	if pm.destroyed {
		panic("pmap: Enter on destroyed pmap")
	}
	sys := pm.sys
	sys.stats.Enters++
	op := sys.Strategy.Begin(ex)
	prev := pm.lock.Lock(ex)
	defer func() {
		if ex.Closed() {
			return
		}
		pm.lock.Unlock(ex, prev)
		sys.Strategy.Finish(ex, op)
	}()

	old, _, _ := pm.Table.Lookup(va)
	newPTE := ptable.Make(frame, prot.CanWrite())
	if old.Valid() && (old.Frame() != frame || (old.Writable() && !prot.CanWrite())) {
		if pm.inUseAnywhere() {
			pm.sync(ex, op, va.Page(), va.Page()+mem.PageSize)
		}
	}
	ex.ChargeInstr()
	ex.ChargeBusWrites(1)
	if err := pm.Table.Enter(va, newPTE); err != nil {
		return err
	}
	if old.Valid() && pm.InUse(ex.CPUID()) {
		// Drop any locally cached copy of the replaced entry. Remote TLBs
		// were handled by the sync above when the change was a reduction;
		// for pure upgrades a remote stale entry is merely over-
		// restrictive and heals through a fault, but the local entry must
		// go or the faulting access could never converge.
		ex.InvalidateTLBEntries(pm.asid, va.Page(), va.Page()+mem.PageSize)
	}
	return nil
}

// Removed describes one mapping taken out by Remove.
type Removed struct {
	VA       ptable.VAddr
	Frame    mem.Frame
	Modified bool
}

// Remove invalidates every mapping in [start, end) and returns what was
// removed (the VM layer owns the frames). This is a permission reduction,
// so it shoots down stale entries first.
func (pm *Pmap) Remove(ex *machine.Exec, start, end ptable.VAddr) []Removed {
	if pm.destroyed {
		panic("pmap: Remove on destroyed pmap")
	}
	sys := pm.sys
	sys.stats.Removes++
	op := sys.Strategy.Begin(ex)
	prev := pm.lock.Lock(ex)

	var out []Removed
	if pm.needsSync(ex, start, end) {
		pm.sync(ex, op, start, end)
	}
	pm.Table.ForEach(start, end, func(va ptable.VAddr, pte ptable.PTE) {
		ex.ChargeBusWrites(1)
		pm.Table.Update(va, 0)
		out = append(out, Removed{VA: va, Frame: pte.Frame(), Modified: pte.Modified()})
	})
	sys.stats.PagesRemoved += uint64(len(out))

	pm.lock.Unlock(ex, prev)
	sys.Strategy.Finish(ex, op)
	return out
}

// Protect reduces the protection of every mapping in [start, end).
// ProtNone removes the mappings; dropping write permission clears the
// writable bit. Protection *increases* are ignored here — Mach leaves them
// to be upgraded lazily by page faults, since temporary extra-restrictive
// entries are harmless (Section 3, technique 3).
func (pm *Pmap) Protect(ex *machine.Exec, start, end ptable.VAddr, prot Prot) {
	if pm.destroyed {
		panic("pmap: Protect on destroyed pmap")
	}
	if prot == ProtNone {
		pm.Remove(ex, start, end)
		return
	}
	sys := pm.sys
	sys.stats.Protects++
	op := sys.Strategy.Begin(ex)
	prev := pm.lock.Lock(ex)

	if !prot.CanWrite() {
		if pm.needsSync(ex, start, end) {
			pm.sync(ex, op, start, end)
		}
		n := 0
		pm.Table.ForEach(start, end, func(va ptable.VAddr, pte ptable.PTE) {
			if pte.Writable() {
				ex.ChargeBusWrites(1)
				pm.Table.Update(va, pte.WithoutFlags(ptable.PTEWritable))
				n++
			}
		})
		sys.stats.PagesReprotected += uint64(n)
	}

	pm.lock.Unlock(ex, prev)
	sys.Strategy.Finish(ex, op)
}

// Destroy tears the pmap down, shooting down any remaining entries and
// freeing the page-table frames. The VM layer can destroy pmaps at any
// time; page faults reconstruct them.
func (pm *Pmap) Destroy(ex *machine.Exec) {
	if pm.kernel {
		panic("pmap: cannot destroy the kernel pmap")
	}
	if pm.destroyed {
		panic("pmap: double destroy")
	}
	sys := pm.sys
	sys.stats.Destroys++
	op := sys.Strategy.Begin(ex)
	prev := pm.lock.Lock(ex)
	if pm.needsSync(ex, 0, machine.KernelBase) {
		pm.sync(ex, op, 0, machine.KernelBase)
	}
	pm.Table.ForEach(0, machine.KernelBase, func(va ptable.VAddr, pte ptable.PTE) {
		ex.ChargeBusWrites(1)
		pm.Table.Update(va, 0)
	})
	pm.destroyed = true
	pm.lock.Unlock(ex, prev)
	sys.Strategy.Finish(ex, op)
	// Finish has synchronized any attached device TLBs against the
	// now-empty map; detach them before the table itself goes away.
	for _, d := range pm.devices {
		d.SetTable(nil, tlb.ASIDNone)
	}
	pm.devices = nil
	pm.Table.Destroy()
}

// Activate makes this pmap the active user map on the CPU (context-switch
// bookkeeping). Joining the in-use set happens *under the pmap lock*: an
// in-flight shootdown holds that lock from before it scans the in-use set
// until after its pmap changes are done, so a processor can never slip
// into the set mid-shootdown (the initiator would wait forever for a
// processor it never interrupted) nor cache entries from a half-updated
// map (we cannot start translating until the update completes).
// The lock acquisition spins at low interrupt priority: while we wait for
// an in-flight shootdown on this very pmap to finish, this processor may
// itself be a responder (it can retain the pmap's entries under the §10
// extension) and must stay interruptible — taking the lock with the
// ordinary masked spin would deadlock initiator against activator. Once
// the lock is observed free, it is taken atomically with all interrupts
// masked so the bounded critical section cannot self-deadlock against a
// responder spinning on our own active pmap's lock.
func (pm *Pmap) Activate(ex *machine.Exec, cpu int) {
	if pm.kernel {
		return // the kernel pmap is permanently active everywhere
	}
	pm.sys.stats.Activations++
	for {
		ex.SpinWhile(&pm.lock)
		s := ex.DisableAll()
		if pm.lock.TryLock(ex) {
			pm.sys.M.CPU(cpu).SetUserTable(pm.Table, pm.asid)
			pm.inUse[cpu] = true
			pm.sys.activeUser[cpu] = pm
			pm.lock.Unlock(ex, s) // releases and restores interrupts
			return
		}
		ex.RestoreIPL(s)
	}
}

// Deactivate removes the CPU from the pmap's in-use set. The TLB is
// flushed *before* the in-use bit is cleared: an initiator that observes
// this processor as no longer using the pmap may immediately stop waiting
// for it, which is only sound if its stale entries are already gone
// ("it has flushed all entries for this pmap from its TLB", Section 4).
//
// Under the Section 10 extension (LazyASIDRelease on tagged TLBs), the
// entries are deliberately retained and the CPU stays in the in-use set;
// the bookkeeping call is "ignored", saving the context-switch flush.
// Future shootdowns treat the retaining CPU as a user and release it.
func (pm *Pmap) Deactivate(ex *machine.Exec, cpu int) {
	if pm.kernel {
		return
	}
	pm.sys.stats.Deactivations++
	if pm.sys.LazyASIDRelease {
		if !pm.sys.M.Options().TLB.Tagged {
			panic("pmap: LazyASIDRelease requires an ASID-tagged TLB")
		}
		ex.ChargeInstr()
		pm.sys.activeUser[cpu] = nil
		pm.sys.M.CPU(cpu).SetUserTable(nil, tlb.ASIDNone)
		return
	}
	if pm.sys.M.Options().TLB.Tagged {
		ex.FlushTLBASID(pm.asid)
	} else {
		ex.FlushTLB()
	}
	pm.inUse[cpu] = false
	pm.sys.activeUser[cpu] = nil
	pm.sys.M.CPU(cpu).SetUserTable(nil, tlb.ASIDNone)
}

// OnCPUFail releases a fail-stopped processor's pmap membership: the user
// pmap it was translating through (if any) stops counting it as a user, so
// initiators and the lazy-evaluation checks no longer account for a
// processor that cannot translate. Dropping the in-use bit without a TLB
// flush is sound — the dead CPU's TLB is frozen while it is offline, and
// coming back online flushes it before the first translation. Under
// LazyASIDRelease other spaces may still retain the dead CPU in their
// in-use sets; that is conservative over-inclusion (a later shootdown
// treats the revived CPU as a user and releases it) and never unsafe.
func (sys *System) OnCPUFail(cpu int) {
	if pm := sys.activeUser[cpu]; pm != nil {
		pm.inUse[cpu] = false
		sys.activeUser[cpu] = nil
	}
}

// ReferenceAndClear reads the page's hardware reference bit and clears it
// (the pageout daemon's second-chance scan). Clearing the bit is not a
// protection reduction — no access becomes newly forbidden — so no
// shootdown is needed; the locally cached copy is invalidated so that
// local re-use re-arms the bit. Remote processors that cached the entry
// with R already set will not re-arm it until their entry is replaced,
// a standard imprecision of reference-bit scanning.
func (pm *Pmap) ReferenceAndClear(ex *machine.Exec, va ptable.VAddr) bool {
	prev := pm.lock.Lock(ex)
	defer pm.lock.Unlock(ex, prev)
	pte, _, ok := pm.Table.Lookup(va)
	if !ok || !pte.Valid() {
		return false
	}
	ref := pte.Referenced()
	if ref {
		ex.ChargeBusWrites(1)
		pm.Table.Update(va, pte.WithoutFlags(ptable.PTEReferenced))
		if pm.InUse(ex.CPUID()) {
			ex.InvalidateTLBEntries(pm.asid, va.Page(), va.Page()+mem.PageSize)
		}
	}
	return ref
}

// KernelPool restricts a kernel virtual-address region to a set of
// processors — the Section 8 restructuring for large NUMA machines:
// "divide both the processors and the kernel virtual address space into
// pools ... and restrict sharing ... between pools", so most kernel-pmap
// shootdowns occur within a pool instead of across the whole machine.
type KernelPool struct {
	Start, End ptable.VAddr
	CPUs       []int
}

// ConfigureKernelPools installs the pool map. Regions must lie in the
// kernel half and not overlap; kernel addresses outside every pool remain
// machine-wide.
func (sys *System) ConfigureKernelPools(pools []KernelPool) error {
	for i, p := range pools {
		if p.Start < machine.KernelBase || p.End <= p.Start {
			return fmt.Errorf("pmap: pool %d region [%#x,%#x) invalid", i, p.Start, p.End)
		}
		if len(p.CPUs) == 0 {
			return fmt.Errorf("pmap: pool %d has no processors", i)
		}
		for j := 0; j < i; j++ {
			q := pools[j]
			if p.Start < q.End && q.Start < p.End {
				return fmt.Errorf("pmap: pools %d and %d overlap", i, j)
			}
		}
	}
	sys.kernelPools = pools
	return nil
}

// InUseForRange implements core.RangeScopedPmap: a kernel range confined
// to one pool is only in use on that pool's processors; everything else
// falls back to the ordinary in-use set.
func (pm *Pmap) InUseForRange(cpu int, start, end ptable.VAddr) bool {
	if !pm.kernel || len(pm.sys.kernelPools) == 0 {
		return pm.InUse(cpu)
	}
	for _, p := range pm.sys.kernelPools {
		if start >= p.Start && end <= p.End {
			for _, c := range p.CPUs {
				if c == cpu {
					return true
				}
			}
			return false
		}
	}
	return pm.InUse(cpu)
}

// RetainsTLBEntries implements core.LazyReleaser.
func (pm *Pmap) RetainsTLBEntries() bool {
	return pm.sys.LazyASIDRelease && !pm.kernel
}

// ReleaseFrom implements core.LazyReleaser: flush every entry for this
// space from the CPU's TLB, then leave the in-use set — in that order, for
// the same reason Deactivate flushes first.
func (pm *Pmap) ReleaseFrom(ex *machine.Exec, cpu int) {
	ex.FlushTLBASID(pm.asid)
	pm.inUse[cpu] = false
}
