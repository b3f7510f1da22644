// Package machine simulates the shared-memory multiprocessor the shootdown
// algorithm runs on: N CPUs with private TLBs and interrupt controllers, a
// single shared write-through bus, and physical memory holding the page
// tables. Execution contexts (Exec) charge virtual time for every
// instruction block, memory access, and interrupt through the cost model,
// on top of the deterministic discrete-event engine in package sim.
//
// The hardware options the paper discusses in Section 9 are all present as
// configuration: unicast vs multicast vs broadcast interprocessor
// interrupts, a high-priority software interrupt that device spl levels do
// not mask, TLBs with blind / interlocked / absent reference-modify-bit
// writeback, ASID-tagged TLBs, and a remote TLB-invalidation port.
package machine

import (
	"fmt"
	"math/rand"

	"shootdown/internal/fault"
	"shootdown/internal/mem"
	"shootdown/internal/profile"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
)

// KernelBase splits the 32-bit virtual address space: addresses at or above
// KernelBase translate through the kernel pmap on every CPU, addresses
// below it through the CPU's currently active user pmap.
const KernelBase ptable.VAddr = 0x8000_0000

// IPL is an interrupt priority level. A pending interrupt is deliverable
// only if its vector's priority exceeds the CPU's current IPL.
type IPL int

// Interrupt priority levels.
const (
	IPLLow    IPL = 0 // everything enabled
	IPLDevice IPL = 1 // device (and, by default, shootdown) interrupts masked
	IPLHigh   IPL = 2 // all maskable interrupts masked
)

// Vector identifies an interrupt source.
type Vector int

// Interrupt vectors.
const (
	VecIPI    Vector = iota // shootdown interprocessor interrupt
	VecTimer                // scheduler timer
	VecDevice               // generic device interrupt (used by workloads)
	numVectors
)

func (v Vector) String() string {
	switch v {
	case VecIPI:
		return "ipi"
	case VecTimer:
		return "timer"
	case VecDevice:
		return "device"
	default:
		return fmt.Sprintf("vector(%d)", int(v))
	}
}

// IPIMode selects the interprocessor-interrupt delivery hardware (§9).
type IPIMode int

// IPI delivery modes.
const (
	// IPIUnicast sends one interrupt per target, serially (the Multimax).
	IPIUnicast IPIMode = iota
	// IPIMulticast loads a processor bit vector into the hardware once.
	IPIMulticast
	// IPIBroadcast interrupts every other processor unconditionally.
	IPIBroadcast
)

func (m IPIMode) String() string {
	switch m {
	case IPIUnicast:
		return "unicast"
	case IPIMulticast:
		return "multicast"
	case IPIBroadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("ipimode(%d)", int(m))
	}
}

// Options configures a Machine.
type Options struct {
	NumCPUs   int
	MemFrames int        // physical memory size; default 4096 frames (16 MB)
	TLB       tlb.Config // per-CPU TLB configuration
	Costs     Costs      // zero value means DefaultCosts
	IPIMode   IPIMode
	// NumDevices adds DMA engines / accelerator MMUs with their own
	// IOTLBs — shootdown participants that take no interrupts and ack
	// through a doorbell-rung invalidation queue instead. Default 0: the
	// CPU-only machine the paper describes.
	NumDevices int
	// DevQueueDepth bounds each device's invalidation queue; an overflow
	// collapses the queue to a single full flush. Default 4.
	DevQueueDepth int
	// SkipDevInval makes devices acknowledge invalidation requests
	// without actually dropping the covered IOTLB entries. This is an
	// intentional bug knob, the device-side sibling of SkipReviveFlush:
	// the oracle's stale-DMA property must catch the first DMA that uses
	// a translation a completed shootdown invalidated.
	SkipDevInval bool
	// HighPriorityIPI gives the shootdown IPI a priority above device
	// interrupts (the paper's first proposed hardware feature, §9), so
	// kernel code at IPLDevice no longer delays shootdowns.
	HighPriorityIPI bool
	// RemoteInvalidate enables a TLB port that lets one CPU invalidate
	// entries in another CPU's TLB directly (MC88200-style, §9).
	RemoteInvalidate bool
	// Seed drives cost jitter and the Random TLB replacement policy.
	Seed int64
	// Faults, when set, injects hardware misbehavior (dropped/delayed
	// IPIs, spurious interrupts, bus jitter) into the machine. Nil runs
	// the fault-free hardware the paper assumes.
	Faults *fault.Injector
	// SkipReviveFlush suppresses the full TLB flush a processor performs
	// when it comes back online. This is an intentional bug knob: a
	// revived CPU then resumes with whatever translations it cached
	// before failing, which the consistency oracle must catch. Used only
	// to validate the oracle and the chaos shrinker.
	SkipReviveFlush bool
}

func (o Options) withDefaults() Options {
	if o.NumCPUs == 0 {
		o.NumCPUs = 16
	}
	if o.MemFrames == 0 {
		o.MemFrames = 4096
	}
	if o.Costs == (Costs{}) {
		o.Costs = DefaultCosts()
	}
	if o.DevQueueDepth == 0 {
		o.DevQueueDepth = 4
	}
	return o
}

// Handler services an interrupt vector. It runs on the execution context
// that was interrupted, with the CPU's IPL raised to the vector's priority.
type Handler func(ex *Exec, v Vector)

// Machine is the simulated multiprocessor.
type Machine struct {
	Eng  *sim.Engine //snap:derived wiring to the engine, re-established when the world is rebuilt for replay
	Phys *mem.PhysMem
	Bus  *Bus

	cpus     []*CPU
	devs     []*Device
	opts     Options             //snap:derived configuration, reapplied from the experiment config on replay
	costs    Costs               //snap:derived computed from opts at construction
	rng      *rand.Rand          //snap:derived rebuilt from opts.Seed on restore; position attested by rng_draws
	faults   *fault.Injector     //snap:derived the injector serializes itself (fault.Injector.Snapshot, the flight recorder's "faults" section)
	handlers [numVectors]Handler //snap:derived vector wiring installed by the protocol layers at construction
	prio     [numVectors]IPL     //snap:derived fixed vector-to-IPL table installed at construction
	tracer   *trace.Tracer       //snap:transient observation attachment, reattached by the session
	prof     *profile.Profiler   //snap:transient observation attachment, reattached by the session
	mmuObs   MMUObserver         //snap:transient observation attachment (the oracle), reattached by the session

	// epoch counts CPU membership changes (fail or online transitions);
	// protocol layers compare epochs to detect that membership moved
	// under them.
	epoch uint64
	// lockBreaks counts spin locks broken because their owner fail-stopped.
	lockBreaks uint64
	// rngDraws counts cost-jitter draws consumed from rng, so snapshots
	// can attest the stream position (the stream is rebuilt by replay).
	rngDraws uint64

	kernelTable *ptable.Table //snap:derived contents live in physical memory, covered by mem_digest; the pointer is wiring
}

// CPUState is a processor's lifecycle state.
type CPUState int

// CPU lifecycle states.
const (
	// CPUOnline: the processor executes and receives interrupts.
	CPUOnline CPUState = iota
	// CPUOffline: the processor fail-stopped. It executes nothing,
	// receives no interrupts, and its TLB contents are frozen until it
	// is brought back online.
	CPUOffline
)

func (s CPUState) String() string {
	switch s {
	case CPUOnline:
		return "online"
	case CPUOffline:
		return "offline"
	default:
		return fmt.Sprintf("cpustate(%d)", int(s))
	}
}

// CPU is one simulated processor.
type CPU struct {
	m   *Machine
	id  int
	TLB *tlb.TLB

	ipl       IPL
	pending   [numVectors]bool
	pendingAt [numVectors]sim.Time // earliest delivery time while pending

	cur *Exec // execution context currently on this CPU, if any

	state CPUState
	// incarnation distinguishes a CPU's lifetimes across fail/online
	// cycles: it increments every time the CPU comes back online, so a
	// lock acquired (or a response awaited) before a failure can be told
	// apart from the revived processor's new life.
	incarnation uint64

	userTable *ptable.Table
	userASID  tlb.ASID
}

// New builds a machine on the given engine.
func New(eng *sim.Engine, opts Options) *Machine {
	opts = opts.withDefaults()
	m := &Machine{
		Eng:    eng,
		Phys:   mem.New(opts.MemFrames),
		opts:   opts,
		costs:  opts.Costs,
		rng:    rand.New(rand.NewSource(opts.Seed + 1000)),
		faults: opts.Faults,
	}
	m.Bus = NewBus(m.costs.BusOccupancy)
	// Vector priorities: device and timer sit at device level. The IPI
	// shares that level on stock hardware; the HighPriorityIPI option
	// lifts it above device masking.
	m.prio[VecTimer] = IPLDevice
	m.prio[VecDevice] = IPLDevice
	if opts.HighPriorityIPI {
		m.prio[VecIPI] = IPLHigh
	} else {
		m.prio[VecIPI] = IPLDevice
	}
	for i := 0; i < opts.NumCPUs; i++ {
		cfg := opts.TLB
		cfg.Seed = opts.Seed + int64(i)*7919
		m.cpus = append(m.cpus, &CPU{m: m, id: i, TLB: tlb.New(cfg)})
	}
	for i := 0; i < opts.NumDevices; i++ {
		cfg := opts.TLB
		// Device IOTLB streams are seeded in a range disjoint from every
		// CPU's, so adding a device never shifts a CPU's replacement draws.
		cfg.Seed = opts.Seed + 500_009 + int64(i)*7919
		m.devs = append(m.devs, newDevice(m, i, cfg))
	}
	if m.faults != nil {
		m.faults.SetClock(func() sim.Time { return eng.Now() })
		m.faults.SetStepClock(eng.StepCount)
	}
	return m
}

// SetTracer attaches the observability tracer to the machine and wires a
// per-CPU TLB observer so hit/miss/invalidate/flush events land on the
// owning CPU's timeline (device IOTLB events land on the device's own
// timeline above the CPU rows). A nil tracer detaches instrumentation.
func (m *Machine) SetTracer(t *trace.Tracer) {
	m.tracer = t
	for _, c := range m.cpus {
		if t == nil {
			c.TLB.Observer = nil
			continue
		}
		cpu := c.id
		c.TLB.Observer = func(op tlb.Op, n int) {
			m.tracer.Instant(int64(m.Eng.Now()), cpu, trace.CatTLB, op.String(), int64(n), 0)
		}
	}
	for _, d := range m.devs {
		if t == nil {
			d.TLB.Observer = nil
			continue
		}
		tid := d.tid()
		d.TLB.Observer = func(op tlb.Op, n int) {
			m.tracer.Instant(int64(m.Eng.Now()), tid, trace.CatTLB, op.String(), int64(n), 0)
		}
	}
}

// Tracer returns the machine's tracer (possibly nil).
func (m *Machine) Tracer() *trace.Tracer { return m.tracer }

// SetProfiler attaches the virtual-time profiler (DESIGN.md §12). Like
// the tracer, profiler hooks charge no virtual time and consume no
// simulation randomness, so profiled runs are bit-identical to
// unprofiled ones. Every profile method is nil-safe, so hooks need no
// guards; a nil profiler detaches instrumentation.
func (m *Machine) SetProfiler(p *profile.Profiler) { m.prof = p }

// Profiler returns the machine's profiler (possibly nil).
func (m *Machine) Profiler() *profile.Profiler { return m.prof }

// NumCPUs returns the processor count.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// CPU returns processor i.
func (m *Machine) CPU(i int) *CPU { return m.cpus[i] }

// NumDevices returns the device count.
func (m *Machine) NumDevices() int { return len(m.devs) }

// Device returns device i.
func (m *Machine) Device(i int) *Device { return m.devs[i] }

// Options returns the machine's configuration (defaults applied).
func (m *Machine) Options() Options { return m.opts }

// Costs returns the cost model in effect.
func (m *Machine) Costs() Costs { return m.costs }

// SetHandler installs the interrupt handler for a vector.
func (m *Machine) SetHandler(v Vector, h Handler) { m.handlers[v] = h }

// SetKernelTable installs the page table used for kernel-half addresses on
// every CPU (the kernel pmap's translation root).
func (m *Machine) SetKernelTable(t *ptable.Table) { m.kernelTable = t }

// KernelTable returns the kernel translation root.
func (m *Machine) KernelTable() *ptable.Table { return m.kernelTable }

// VectorPriority returns the IPL at which vector v is masked.
func (m *Machine) VectorPriority(v Vector) IPL { return m.prio[v] }

// Post latches an interrupt for the target CPU and nudges whatever context
// is executing there so it notices after the interrupt latency. It returns
// true if the vector was already pending (the initiator's "already has a
// shootdown interrupt pending" check relies on this). Post may be called
// from any running proc.
func (m *Machine) Post(target int, v Vector) (wasPending bool) {
	return m.PostAfter(target, v, 0)
}

// PostAfter latches an interrupt that becomes deliverable only after the
// given extra delay — the fault injector's delayed-IPI model. The vector
// counts as pending immediately (it is latched in the interrupt
// controller, merely in flight), so initiator-side coalescing still sees
// it. Re-posting an already-pending vector with a shorter delay moves the
// delivery time earlier: a watchdog's retry IPI overtakes a delayed one.
func (m *Machine) PostAfter(target int, v Vector, delay sim.Time) (wasPending bool) {
	cpu := m.cpus[target]
	if cpu.state != CPUOnline {
		// A fail-stopped processor latches nothing; the interrupt is lost
		// exactly as on real hardware whose target has powered off.
		return false
	}
	now := m.Eng.Now()
	if v == VecIPI {
		m.prof.IPIPosted(int64(now), target, cpu.ipl >= m.prio[VecIPI])
	}
	nudge := func() {
		if cpu.cur != nil && cpu.cur.proc != nil {
			m.Eng.Preempt(cpu.cur.proc, now+m.costs.IRQLatency+delay)
		}
	}
	if cpu.pending[v] {
		if at := now + delay; at < cpu.pendingAt[v] {
			cpu.pendingAt[v] = at
			nudge()
		}
		return true
	}
	cpu.pending[v] = true
	cpu.pendingAt[v] = now + delay
	m.tracer.Instant(int64(now), target, trace.CatMachine, postName(v), int64(delay), 0)
	nudge()
	return false
}

// Faults returns the machine's fault injector (possibly nil).
func (m *Machine) Faults() *fault.Injector { return m.faults }

// CPUSnap is one processor's state in wire form, for the flight recorder's
// black boxes (DESIGN.md §13) and full-state snapshots (§14). The shallow
// fields (state, incarnation, IPL, pending vectors) date from the black
// boxes; the deep fields (per-vector delivery times, active user space,
// full TLB state) complete the snapshot.
type CPUSnap struct {
	ID          int      `json:"id"`
	State       string   `json:"state"`
	Incarnation uint64   `json:"incarnation"`
	IPL         int      `json:"ipl"`
	Pending     []string `json:"pending,omitempty"`
	// PendingAtNS holds each pending vector's earliest delivery time, in
	// the same order as Pending.
	PendingAtNS []int64 `json:"pending_at_ns,omitempty"`
	UserASID    uint16  `json:"user_asid,omitempty"`
	// HasUserTable distinguishes "no user space" from ASID 0 on untagged
	// TLBs; the table's contents live in physical memory, covered by the
	// memory layer's digest.
	HasUserTable bool     `json:"has_user_table,omitempty"`
	TLB          tlb.Snap `json:"tlb"`
}

// Snap is the machine's processor and membership state in wire form.
type Snap struct {
	Epoch      uint64 `json:"epoch"`
	LockBreaks uint64 `json:"lock_breaks"`
	// RNGDraws is the cost-jitter stream position: how many draws the
	// machine's RNG has consumed. The stream itself is rebuilt from the
	// seed on restore and fast-forwarded by replay.
	RNGDraws uint64 `json:"rng_draws,omitempty"`
	// MemDigest is an FNV-1a digest of physical memory (page tables, PTE
	// flag bits, workload data); the frames themselves are too large to
	// serialize usefully.
	MemDigest string    `json:"mem_digest,omitempty"`
	BusBusyNS int64     `json:"bus_busy_ns,omitempty"`
	CPUs      []CPUSnap `json:"cpus"`
	// Devices holds each device's state in id order; omitted on the
	// deviceless machines every pre-device wire form describes.
	Devices []DevSnap `json:"devices,omitempty"`
}

// Snapshot captures every CPU's lifecycle state, IPL, pending vectors,
// active user space, and TLB contents, plus the machine-wide RNG position
// and a digest of physical memory. Output is deterministic: CPUs in id
// order, vectors in vector order. Deep capture (TLBs, memory digest) makes
// this suitable both for black boxes and for the restore verification in
// DESIGN.md §14.
func (m *Machine) Snapshot() Snap {
	snap := Snap{
		Epoch:      m.epoch,
		LockBreaks: m.lockBreaks,
		RNGDraws:   m.rngDraws,
		MemDigest:  m.Phys.Digest(),
		BusBusyNS:  int64(m.Bus.BusyUntil()),
	}
	for _, c := range m.cpus {
		cs := CPUSnap{
			ID:           c.id,
			State:        c.state.String(),
			Incarnation:  c.incarnation,
			IPL:          int(c.ipl),
			UserASID:     uint16(c.userASID),
			HasUserTable: c.userTable != nil,
			TLB:          c.TLB.Snapshot(),
		}
		for v := Vector(0); v < numVectors; v++ {
			if c.pending[v] {
				cs.Pending = append(cs.Pending, v.String())
				cs.PendingAtNS = append(cs.PendingAtNS, int64(c.pendingAt[v]))
			}
		}
		snap.CPUs = append(snap.CPUs, cs)
	}
	for _, d := range m.devs {
		snap.Devices = append(snap.Devices, d.Snapshot())
	}
	return snap
}

// jitter applies cost jitter through the machine RNG while counting the
// draw, so snapshots can attest the stream position.
func (m *Machine) jitter(t sim.Time) sim.Time {
	if m.costs.JitterPct > 0 && t != 0 {
		m.rngDraws++
	}
	return m.costs.jitter(m.rng, t)
}

// Epoch returns the membership epoch: the number of CPU lifecycle
// transitions (fail or online) so far.
func (m *Machine) Epoch() uint64 { return m.epoch }

// LockBreaks returns how many spin locks have been broken because their
// owning processor fail-stopped while holding them.
func (m *Machine) LockBreaks() uint64 { return m.lockBreaks }

// FailCPU fail-stops a processor: its state goes offline, the execution
// context on it (if any) is halted in place — nothing unwinds, so any
// spin locks that context held stay held until a survivor breaks them —
// and every latched interrupt is discarded. Returns false if the CPU was
// already offline. The caller (the kernel's lifecycle driver) is
// responsible for software-level recovery: reaping the dead thread,
// releasing its pmap membership, and restarting scheduling state.
func (m *Machine) FailCPU(cpuID int) bool {
	cpu := m.cpus[cpuID]
	if cpu.state != CPUOnline {
		return false
	}
	cpu.state = CPUOffline
	m.epoch++
	if cpu.cur != nil {
		if cpu.cur.proc != nil {
			m.Eng.Kill(cpu.cur.proc)
		}
		cpu.cur = nil
	}
	for v := Vector(0); v < numVectors; v++ {
		cpu.pending[v] = false
	}
	m.tracer.Instant(int64(m.Eng.Now()), cpuID, trace.CatMachine, "cpu-fail", int64(cpu.incarnation), 0)
	m.prof.CPUFail(int64(m.Eng.Now()), cpuID)
	return true
}

// OnlineCPU brings a failed processor back online with a fresh
// incarnation. Hardware reset flushes its TLB — a hot-plugged processor
// must start translation from the page tables, never from entries cached
// in a previous life (Options.SkipReviveFlush suppresses this, as an
// intentional bug for oracle validation). Returns false if the CPU was
// already online.
func (m *Machine) OnlineCPU(cpuID int) bool {
	cpu := m.cpus[cpuID]
	if cpu.state == CPUOnline {
		return false
	}
	cpu.state = CPUOnline
	cpu.incarnation++
	m.epoch++
	if !m.opts.SkipReviveFlush {
		cpu.TLB.Flush()
	}
	for v := Vector(0); v < numVectors; v++ {
		cpu.pending[v] = false
	}
	cpu.userTable = nil
	cpu.userASID = tlb.ASIDNone
	m.tracer.Instant(int64(m.Eng.Now()), cpuID, trace.CatMachine, "cpu-online", int64(cpu.incarnation), 0)
	m.prof.CPUOnline(int64(m.Eng.Now()), cpuID)
	return true
}

// cpuAlive reports whether processor cpu is online in the same
// incarnation inc — i.e. whether an agent that recorded (cpu, inc) is
// still running. False once the CPU fails, and still false after it
// revives (the revived processor is a different life).
func (m *Machine) cpuAlive(cpu int, inc uint64) bool {
	c := m.cpus[cpu]
	return c.state == CPUOnline && c.incarnation == inc
}

// MMUObserver watches successful translations, for consistency checking
// that is independent of the shootdown protocol (internal/oracle). OnTLBUse
// fires when a cached entry grants an access; OnTLBInsert fires when a
// hardware reload caches a fresh entry. Observers must charge no virtual
// time and consume no simulation randomness.
type MMUObserver interface {
	OnTLBUse(cpu int, va ptable.VAddr, asid tlb.ASID, entry ptable.PTE, table *ptable.Table, write bool)
	OnTLBInsert(cpu int, va ptable.VAddr, asid tlb.ASID, entry ptable.PTE, table *ptable.Table)
}

// SetMMUObserver installs the translation observer (nil detaches it).
func (m *Machine) SetMMUObserver(o MMUObserver) { m.mmuObs = o }

// postName and irqName map vectors to constant event names (no per-event
// string building on the hot path).
func postName(v Vector) string {
	switch v {
	case VecIPI:
		return "post-ipi"
	case VecTimer:
		return "post-timer"
	default:
		return "post-device"
	}
}

func irqName(v Vector) string {
	switch v {
	case VecIPI:
		return "irq-ipi"
	case VecTimer:
		return "irq-timer"
	default:
		return "irq-device"
	}
}

// ID returns the CPU number.
func (c *CPU) ID() int { return c.id }

// State returns the CPU's lifecycle state.
func (c *CPU) State() CPUState { return c.state }

// Online reports whether the CPU is online.
func (c *CPU) Online() bool { return c.state == CPUOnline }

// Incarnation returns the CPU's current incarnation number (0 for its
// first life; incremented each time it comes back online after a failure).
func (c *CPU) Incarnation() uint64 { return c.incarnation }

// IPL returns the CPU's current interrupt priority level.
func (c *CPU) IPL() IPL { return c.ipl }

// Pending reports whether vector v is latched on this CPU.
func (c *CPU) Pending(v Vector) bool { return c.pending[v] }

// SetUserTable points the CPU's MMU at a user translation root; asid tags
// the entries when the TLB is tagged. A nil table means no user space.
func (c *CPU) SetUserTable(t *ptable.Table, asid tlb.ASID) {
	c.userTable = t
	c.userASID = asid
}

// UserTable returns the current user translation root.
func (c *CPU) UserTable() *ptable.Table { return c.userTable }

// Current returns the execution context on this CPU, or nil.
func (c *CPU) Current() *Exec { return c.cur }

// takeDeliverable dequeues the highest-priority deliverable pending vector.
// A vector posted with a delay (fault injection) stays latched but is not
// deliverable before its arrival time.
func (c *CPU) takeDeliverable() (Vector, bool) {
	best := Vector(-1)
	var bestPrio IPL = -1
	now := c.m.Eng.Now()
	for v := Vector(0); v < numVectors; v++ {
		if c.pending[v] && now >= c.pendingAt[v] && c.m.prio[v] > c.ipl && c.m.prio[v] > bestPrio {
			best, bestPrio = v, c.m.prio[v]
		}
	}
	if best < 0 {
		return 0, false
	}
	c.pending[best] = false
	return best, true
}

// tableFor resolves the translation root and ASID for a virtual address.
func (c *CPU) tableFor(va ptable.VAddr) (*ptable.Table, tlb.ASID) {
	if va >= KernelBase {
		return c.m.kernelTable, tlb.ASIDNone
	}
	return c.userTable, c.userASID
}

// FaultKind classifies a translation fault.
type FaultKind int

// Fault kinds.
const (
	// FaultNotPresent: no valid translation for the page.
	FaultNotPresent FaultKind = iota
	// FaultProtection: the mapping forbids the attempted access.
	FaultProtection
	// FaultNoSpace: no address space is active for the address range.
	FaultNoSpace
	// FaultQuarantined: the access went through a quarantined device,
	// whose translations are poisoned and grant nothing.
	FaultQuarantined
	// FaultBusError: a DMA transfer targeted a physical frame that is no
	// longer allocated — the observable wreckage of streaming through a
	// stale device translation after the backing frame was reclaimed.
	FaultBusError
)

func (k FaultKind) String() string {
	switch k {
	case FaultNotPresent:
		return "not-present"
	case FaultProtection:
		return "protection"
	case FaultNoSpace:
		return "no-space"
	case FaultQuarantined:
		return "quarantined"
	case FaultBusError:
		return "bus-error"
	default:
		return fmt.Sprintf("faultkind(%d)", int(k))
	}
}

// Fault describes a failed virtual-memory access. It implements error.
type Fault struct {
	VA    ptable.VAddr
	Write bool
	Kind  FaultKind
}

func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("machine: %s fault (%s) at %#x", f.Kind, op, f.VA)
}

// SpinLock is a test-and-set spin lock with the paper's interrupt-priority
// discipline: the lock has an associated IPL, is acquired at that level,
// and may only be held at that level or higher (Section 4's fix for the
// deadlocks caused by inconsistent interrupt protection of locks).
type SpinLock struct {
	Name   string
	MinIPL IPL

	held     bool
	owner    int
	ownerInc uint64   // owner CPU's incarnation at acquisition
	heldAt   sim.Time // acquisition time, for the profiler's hold histogram
}

// breakIfOwnerDead releases a lock whose owner fail-stopped while holding
// it (the owner's context was halted in place, so no unlock is coming).
// This is the successor path the protocol needs to survive a dead
// initiator: the next processor that wants the lock inherits it, finding
// the protected structure in whatever consistent-at-instruction-boundary
// state the victim left it. Returns whether the lock was broken.
func (l *SpinLock) breakIfOwnerDead(m *Machine) bool {
	if !l.held || m.cpuAlive(l.owner, l.ownerInc) {
		return false
	}
	m.lockBreaks++
	m.tracer.Instant(int64(m.Eng.Now()), l.owner, trace.CatMachine, "lock-break", int64(l.ownerInc), 0)
	l.held = false
	return true
}

// Lock raises the caller to the lock's IPL, spins until the lock is free,
// and takes it. It returns the previous IPL for Unlock to restore. A lock
// held by a fail-stopped processor is broken and taken over rather than
// spun on forever.
func (l *SpinLock) Lock(ex *Exec) IPL {
	prev := ex.RaiseIPL(l.MinIPL)
	ex.charge(ex.m().costs.LockAcquire)
	pr := ex.m().prof
	t0 := ex.Now()
	contended := false
	for l.held && !l.breakIfOwnerDead(ex.m()) {
		if !contended {
			contended = true
			pr.Push(int64(ex.Now()), ex.CPUID(), profile.PhaseSpinLock)
		}
		ex.Advance(ex.m().costs.SpinCheck)
	}
	if contended {
		pr.Pop(int64(ex.Now()), ex.CPUID(), profile.PhaseSpinLock)
	}
	pr.LockWait(l.Name, int64(ex.Now()-t0))
	l.held = true
	l.owner = ex.CPUID()
	l.ownerInc = ex.cpu.incarnation
	l.heldAt = ex.Now()
	return prev
}

// TryLock takes the lock if it is free, without spinning and without
// touching the interrupt level — the caller must already be at the lock's
// IPL or higher (typically via DisableAll) and restores it through Unlock.
// Like Lock, it breaks and takes over a dead owner's lock.
func (l *SpinLock) TryLock(ex *Exec) bool {
	ex.charge(ex.m().costs.LockAcquire)
	if l.held && !l.breakIfOwnerDead(ex.m()) {
		return false
	}
	ex.m().prof.LockWait(l.Name, 0)
	l.held = true
	l.owner = ex.CPUID()
	l.ownerInc = ex.cpu.incarnation
	l.heldAt = ex.Now()
	return true
}

// Unlock releases the lock and restores the saved IPL.
func (l *SpinLock) Unlock(ex *Exec, prev IPL) {
	if !l.held {
		panic(fmt.Sprintf("machine: unlock of unheld lock %q", l.Name))
	}
	if l.owner != ex.CPUID() {
		panic(fmt.Sprintf("machine: lock %q unlocked by cpu %d, held by cpu %d",
			l.Name, ex.CPUID(), l.owner))
	}
	ex.charge(ex.m().costs.LockRelease)
	ex.m().prof.LockHold(l.Name, int64(ex.Now()-l.heldAt))
	l.held = false
	ex.RestoreIPL(prev)
}

// Held reports whether the lock is currently held by anyone. The shootdown
// responder spins on this without acquiring.
func (l *SpinLock) Held() bool { return l.held }

// Owner returns the holding CPU and its incarnation at acquisition, with
// held=false when the lock is free. Snapshot capture uses this; protocol
// code should use Held/HeldBy/HeldLive.
func (l *SpinLock) Owner() (cpu int, inc uint64, held bool) {
	if !l.held {
		return 0, 0, false
	}
	return l.owner, l.ownerInc, true
}

// HeldBy reports whether the lock is held by the given CPU.
func (l *SpinLock) HeldBy(cpu int) bool { return l.held && l.owner == cpu }

// HeldLive reports whether the lock is held by a processor that is still
// alive in the incarnation that acquired it. A responder stalling "while
// an update is in progress" must use this rather than Held: a dead
// initiator's lock signals no in-progress update — its partial update is
// already frozen, and waiting for an unlock that will never come would
// wedge every responder.
func (l *SpinLock) HeldLive(m *Machine) bool {
	return l.held && m.cpuAlive(l.owner, l.ownerInc)
}
