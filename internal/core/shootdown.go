// Package core implements the Mach TLB shootdown algorithm (Section 4 of
// the paper) — the software protocol that keeps per-processor TLBs
// consistent with physical maps on hardware with no remote TLB control.
//
// The algorithm proceeds in four phases once a pmap operation detects that
// its changes could leave an inconsistent TLB entry somewhere:
//
//	1 Initiator: queue consistency actions for every processor using the
//	  pmap, set their action-needed flags, send interrupts, and wait.
//	2 Responders: acknowledge by leaving the active set, then spin until
//	  the initiator finishes its pmap changes (they must neither read nor
//	  write the pmap mid-update: hardware reload could cache a stale entry
//	  and the reference/modify writeback could corrupt the update).
//	3 Initiator: with every relevant processor inactive (or no longer using
//	  the pmap), make the pmap changes and unlock the pmap.
//	4 Responders: perform the queued invalidations, clear their flags, and
//	  rejoin the active set.
//
// All five of the paper's refinements are implemented: initiators notice
// responders that cease using the pmap; crossed shootdowns cannot deadlock
// because initiators remove themselves from the active set and disable
// shootdown interrupts; all interrupts are disabled during the protocol;
// locks carry fixed interrupt priorities (machine.SpinLock); and idle
// processors are not interrupted — they drain their action queues before
// becoming active.
package core

import (
	"fmt"

	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
	"shootdown/internal/xpr"
)

// Pmap is the view of a physical map the shootdown algorithm needs. The
// pmap module implements it; keeping it an interface keeps the protocol
// independent of pmap internals (the paper's policy/mechanism separation).
type Pmap interface {
	// Locked reports whether the pmap's update lock is held. Responders
	// spin on this to stall while an update is in progress.
	Locked() bool
	// UpdateInProgress reports whether the pmap's update lock is held by
	// a processor that is still alive in the incarnation that took it.
	// Responders stall on this rather than Locked: a fail-stopped
	// initiator's lock does not signal an in-progress update — its
	// partial update is frozen, and waiting for an unlock that will
	// never come would wedge every responder.
	UpdateInProgress() bool
	// InUse reports whether the given processor is actively translating
	// through this pmap. The kernel pmap is in use on every processor.
	InUse(cpu int) bool
	// ASID tags the pmap's TLB entries on ASID-tagged hardware.
	ASID() tlb.ASID
	// IsKernel distinguishes kernel-pmap shootdowns in instrumentation.
	IsKernel() bool
}

// Action is one queued consistency action: invalidate [Start, End) for the
// given address space, or flush everything.
type Action struct {
	Pmap     Pmap // the map the action is for (nil for synthetic actions)
	ASID     tlb.ASID
	Start    ptable.VAddr
	End      ptable.VAddr
	FlushAll bool
}

// RangeScopedPmap extends Pmap for the Section 8 restructuring proposed
// for large NUMA machines: the kernel address space is divided into pools
// mirroring the processor pools, and memory that may require shootdowns is
// not shared between pools — so a shootdown for a pooled range involves
// only the pool's processors instead of the entire machine.
type RangeScopedPmap interface {
	Pmap
	// InUseForRange reports whether the processor can hold translations
	// for any page in [start, end).
	InUseForRange(cpu int, start, end ptable.VAddr) bool
}

// inUseFor resolves the per-range in-use test, honoring pool scoping.
func inUseFor(p Pmap, cpu int, start, end ptable.VAddr) bool {
	if rs, ok := p.(RangeScopedPmap); ok {
		return rs.InUseForRange(cpu, start, end)
	}
	return p.InUse(cpu)
}

// LazyReleaser extends Pmap for ASID-tagged TLBs handled per Section 10:
// entries outlive context switches, so a pmap stays "in use" on a
// processor until its entries are explicitly flushed there. When a
// responder receives an invalidation for a space it retains but is not
// currently running, it flushes the whole space and releases it instead
// of invalidating entry by entry ("completely flush entries for any
// address space that requires an invalidation even though it is not
// currently being used").
type LazyReleaser interface {
	Pmap
	// RetainsTLBEntries reports whether deactivation leaves entries
	// cached (i.e. the Section 10 mode is enabled).
	RetainsTLBEntries() bool
	// ReleaseFrom flushes every entry for this space from the CPU's TLB
	// and removes the CPU from the in-use set.
	ReleaseFrom(ex *machine.Exec, cpu int)
}

// Pages returns the number of pages the action covers.
func (a Action) Pages() int {
	return int((a.End - a.Start + mem.PageSize - 1) / mem.PageSize)
}

// DeviceTLB is the protocol's view of a device-TLB participant (an IOMMU
// or accelerator MMU; machine.Device implements it). Devices break the
// paper's core assumption: they hold translations but take no interrupts,
// so they cannot join the IPI+spin barrier. Instead the initiator posts an
// invalidation request into the device's bounded queue (ringing its
// doorbell), continues, and later polls Completed — an ATS-style
// invalidate → wait-for-completion exchange. The watchdog ladder for a
// device that never completes is Ring (the doorbell may have been lost),
// then Reset (drain-and-reset, whose full IOTLB flush satisfies every
// outstanding request), then Quarantine (fail-stop the device and finish
// the shootdown without it — its translations are poisoned, so a missing
// acknowledgement no longer threatens consistency).
type DeviceTLB interface {
	// ID identifies the device in instrumentation.
	ID() int
	// Online reports whether the device has not been quarantined.
	Online() bool
	// PostInvalidate queues an invalidation and rings the doorbell,
	// returning the completion sequence number to poll. ok is false when
	// the device is quarantined (nothing to wait for).
	PostInvalidate(ex *machine.Exec, asid tlb.ASID, start, end ptable.VAddr, flushAll bool) (seq uint64, ok bool)
	// Ring re-rings the doorbell (first escalation rung).
	Ring(ex *machine.Exec)
	// Completed reports whether the request has been acknowledged.
	Completed(seq uint64) bool
	// Reset drains and resets the device (second rung); false when the
	// device did not respond to the reset either.
	Reset(ex *machine.Exec) bool
	// Quarantine fail-stops the device (final rung).
	Quarantine(ex *machine.Exec) bool
}

// deviceMember is one registered device participant: the device plus the
// address space it translates through. A device is shot at exactly when a
// shootdown targets its pmap.
type deviceMember struct {
	dev  DeviceTLB
	pmap Pmap
}

// Op carries one pmap operation's consistency context from Begin through
// Sync to Finish. Strategies that defer work past the pmap update (the
// postponed-interrupt and timer-flush baselines) stash what they need here.
type Op struct {
	prevIPL machine.IPL

	// Pmap and the range are recorded by Sync for strategies that act in
	// Finish, after the pmap has been updated and unlocked.
	Pmap       Pmap
	Start, End ptable.VAddr
	Synced     bool
}

// Strategy is the pluggable consistency mechanism seam. The Mach shootdown
// is the paper's contribution; package baseline provides the alternatives
// discussed in Sections 3, 9, and 10 for comparison.
//
// A pmap operation brackets itself with Begin (before taking the pmap
// lock) and Finish (after releasing it), and calls Sync — with the lock
// held, before modifying the pmap — when its changes could leave stale
// entries in remote TLBs. Sync returns the number of processors involved.
type Strategy interface {
	Name() string
	Begin(ex *machine.Exec) *Op
	Sync(ex *machine.Exec, op *Op, p Pmap, start, end ptable.VAddr) int
	Finish(ex *machine.Exec, op *Op)
	// GoIdle and GoActive bracket a processor's idle periods so the
	// strategy can implement the idle-processor optimization.
	GoIdle(ex *machine.Exec)
	GoActive(ex *machine.Exec)
}

// Options tunes the shootdown algorithm. The zero value gives the paper's
// configuration: idle optimization on, an update queue sized so overflow
// only happens when a full flush is cheaper anyway, and an
// invalidate-vs-flush threshold.
type Options struct {
	// QueueSize bounds each processor's consistency-action queue;
	// overflow degrades to a full TLB flush. Default 8.
	QueueSize int
	// FlushThreshold is the page count beyond which a full buffer flush
	// is faster than individual invalidates. Default 8.
	FlushThreshold int
	// DisableIdleOptimization makes initiators interrupt and synchronize
	// with idle processors too (ablation).
	DisableIdleOptimization bool

	// WatchdogTimeout arms an initiator-side watchdog: if a responder has
	// not acknowledged within this much virtual time, the initiator
	// re-sends the IPI (it may have been dropped) and doubles the timeout
	// up to WatchdogBackoffMax. The same timeout bounds the wait for one
	// device completion before the device watchdog ladder engages. Zero
	// (the default) disables the watchdog — the paper's protocol, which
	// trusts the interrupt hardware and the devices.
	WatchdogTimeout sim.Time
	// WatchdogMaxRetries is the number of timed-out retries before the
	// watchdog escalates to the conservative path: the straggler's action
	// queue is forced into the overflow state so its eventual response is
	// a single full TLB flush. Default 4 (when the watchdog is armed).
	WatchdogMaxRetries int
	// WatchdogBackoffMax caps the exponential backoff between retries.
	// Default 16× WatchdogTimeout.
	WatchdogBackoffMax sim.Time

	// DevMaxRerings is how many timed-out waits are answered with a
	// doorbell re-ring before the ladder escalates to drain-and-reset
	// (and, if the reset fails or does not help, quarantine). Default 2.
	DevMaxRerings int
}

func (o Options) withDefaults() Options {
	if o.QueueSize == 0 {
		o.QueueSize = 8
	}
	if o.FlushThreshold == 0 {
		o.FlushThreshold = 8
	}
	if o.WatchdogTimeout > 0 {
		if o.WatchdogMaxRetries == 0 {
			o.WatchdogMaxRetries = 4
		}
		if o.WatchdogBackoffMax == 0 {
			o.WatchdogBackoffMax = 16 * o.WatchdogTimeout
		}
		if o.DevMaxRerings == 0 {
			o.DevMaxRerings = 2
		}
	}
	return o
}

// Stats counts protocol events.
type Stats struct {
	Syncs              uint64 // Sync calls (shootdowns invoked)
	RemoteShootdowns   uint64 // Syncs that involved at least one other CPU
	ActionsQueued      uint64
	IPIsSent           uint64
	IPIsCoalesced      uint64 // send skipped: interrupt already pending
	IdleSkipped        uint64 // queue-only for idle processors
	Responses          uint64 // responder passes
	QueueOverflows     uint64
	FullFlushes        uint64
	EntriesInvalidated uint64
	// LazyReleases counts whole-space flushes of retained (ASID-tagged)
	// address spaces on processors no longer running them (Section 10).
	LazyReleases uint64
	// WatchdogTimeouts counts responder-ack waits that exceeded the
	// watchdog timeout; WatchdogRetries the IPIs re-sent because of them;
	// WatchdogEscalations the stragglers forced onto the full-flush path.
	WatchdogTimeouts    uint64
	WatchdogRetries     uint64
	WatchdogEscalations uint64
	// OfflineSkipped counts processors excluded from a shootdown up front
	// because they were offline when the initiator scanned membership.
	OfflineSkipped uint64
	// WatchdogMembershipRescues counts waits abandoned because the
	// membership re-check found the responder fail-stopped (or failed and
	// revived into a fresh incarnation) — the watchdog's final escalation.
	WatchdogMembershipRescues uint64

	// Device-participant counters. All carry omitempty so a deviceless
	// run's wire forms (black boxes, snapshots, corpus reproducers) are
	// byte-identical to the pre-device format.
	//
	// DevShootdowns counts Syncs that posted to at least one device;
	// DevInvalsPosted the invalidation requests posted.
	DevShootdowns   uint64 `json:",omitempty"`
	DevInvalsPosted uint64 `json:",omitempty"`
	// DevCompletionTimeouts counts completion waits that exceeded the
	// device watchdog timeout; DevRerings, DevResets, and DevQuarantines
	// count each escalation rung taken.
	DevCompletionTimeouts uint64 `json:",omitempty"`
	DevRerings            uint64 `json:",omitempty"`
	DevResets             uint64 `json:",omitempty"`
	DevQuarantines        uint64 `json:",omitempty"`
	// DevOfflineSkipped counts devices excluded from a shootdown up front
	// because they were already quarantined at membership-scan time.
	DevOfflineSkipped uint64 `json:",omitempty"`
}

// Shootdown is the Mach shootdown algorithm state: the active and idle
// processor sets, per-processor action queues with their locks, and the
// action-needed flags (Section 4's "small collection of data structures").
type Shootdown struct {
	m    *machine.Machine //snap:derived wiring to the machine, re-established when the world is rebuilt for replay
	opts Options          //snap:derived configuration, reapplied from the experiment config on replay

	active       []bool
	idle         []bool
	actionNeeded []bool
	queues       [][]Action
	cpus         []cpuState
	actionLocks  []machine.SpinLock

	// memberLock serializes membership-sensitive transitions: an
	// initiator's membership scan (and the watchdog's membership
	// re-check) against a revived processor's protocol-state reset. It
	// ranks between the pmap lock and the action locks in the documented
	// lock order, so an initiator holding the pmap lock may take it and
	// then the action locks.
	memberLock machine.SpinLock

	// devices lists the registered device participants (serialized as
	// the Devices section of Snap).
	devices []deviceMember

	kernelPmap Pmap               //snap:derived wiring to the kernel pmap, re-established at construction
	userPmapOn func(cpu int) Pmap //snap:derived wiring installed by the kernel at construction; pmap active on a CPU, or nil

	// Trace, when set, receives initiator and responder records.
	//snap:transient observation attachment, reattached by the session
	Trace *xpr.Buffer

	stats Stats
	// recoveryUS records, for every wait the watchdog had to rescue, the
	// virtual microseconds from the first timeout to quiescence.
	recoveryUS []float64
	// inFlight counts initiators currently between Begin and Finish — the
	// paper's race window, during which a pmap update and the responders'
	// TLB flushes must be ordered.
	inFlight int
}

var _ Strategy = (*Shootdown)(nil)

// cpuState is one processor's queue-overflow flag plus the conditions it
// spins on: as a responder until no update it could observe is in
// progress (stall), as an initiator until one responder (wait) or one
// device (devWait) is done. They live here rather than in closures, so
// parking one in the processor's loop slot costs no allocation. An
// interrupt handler only ever stalls, so the initiator's waits are never
// reused while they are parked.
type cpuState struct {
	overflow bool
	stall    stallCond
	wait     responderWait
	devWait  deviceWait
}

// stallCond holds while a pmap that processor cpu can translate through
// is being updated by a live initiator: the responder's phase-2 stall.
// The paper's pseudo-code joins the two lock tests with &&, but the
// responder must stall while EITHER pmap is being updated — otherwise it
// could reload a stale entry from (or write R/M bits into) the
// half-updated map; we implement the OR. The test is UpdateInProgress,
// not Locked: a fail-stopped initiator's lock will never be released,
// and its frozen half-update is processed like any other — the queued (or
// escalated-to-flush) invalidations over-invalidate, which is always
// safe.
type stallCond struct {
	s   *Shootdown
	cpu int
}

func (c *stallCond) Holds() bool {
	if c.s.kernelPmap != nil && c.s.kernelPmap.UpdateInProgress() {
		return true
	}
	if c.s.userPmapOn != nil {
		if up := c.s.userPmapOn(c.cpu); up != nil && up.UpdateInProgress() {
			return true
		}
	}
	return false
}

// responderWait holds until responder cpu acknowledges (leaves the
// active set) or stops using [start, end) of p.
type responderWait struct {
	s          *Shootdown
	cpu        int
	p          Pmap
	start, end ptable.VAddr
}

func (w *responderWait) Holds() bool {
	return w.s.active[w.cpu] && inUseFor(w.p, w.cpu, w.start, w.end)
}

// deviceWait holds until device d completes request seq or goes offline.
type deviceWait struct {
	d   DeviceTLB
	seq uint64
}

func (w *deviceWait) Holds() bool { return w.d.Online() && !w.d.Completed(w.seq) }

// New creates the shootdown state for machine m and installs the responder
// as the machine's IPI handler. Processors start active and not idle; the
// kernel marks them idle via GoIdle.
func New(m *machine.Machine, opts Options) *Shootdown {
	n := m.NumCPUs()
	s := &Shootdown{
		m:            m,
		opts:         opts.withDefaults(),
		active:       make([]bool, n),
		idle:         make([]bool, n),
		actionNeeded: make([]bool, n),
		queues:       make([][]Action, n),
		cpus:         make([]cpuState, n),
		actionLocks:  make([]machine.SpinLock, n),
	}
	for i := range s.active {
		s.active[i] = true
		s.cpus[i].stall = stallCond{s: s, cpu: i}
		s.actionLocks[i] = machine.SpinLock{Name: fmt.Sprintf("action%d", i), MinIPL: machine.IPLHigh}
	}
	s.memberLock = machine.SpinLock{Name: "member", MinIPL: machine.IPLHigh}
	m.SetHandler(machine.VecIPI, func(ex *machine.Exec, _ machine.Vector) {
		s.respond(ex)
	})
	return s
}

// Name implements Strategy.
func (s *Shootdown) Name() string { return "mach-shootdown" }

// Stats returns a snapshot of the protocol counters.
func (s *Shootdown) Stats() Stats { return s.stats }

// WatchdogRecoveryUS returns the recovery latency, in virtual microseconds,
// of every responder wait the watchdog rescued (first timeout → quiescence).
func (s *Shootdown) WatchdogRecoveryUS() []float64 {
	out := make([]float64, len(s.recoveryUS))
	copy(out, s.recoveryUS)
	return out
}

// Options returns the effective options.
func (s *Shootdown) Options() Options { return s.opts }

// SetKernelPmap registers the kernel pmap (responders spin on its lock).
func (s *Shootdown) SetKernelPmap(p Pmap) { s.kernelPmap = p }

// SetUserPmapFn registers the resolver for the user pmap active on a CPU.
func (s *Shootdown) SetUserPmapFn(f func(cpu int) Pmap) { s.userPmapOn = f }

// RegisterDevice adds a device-TLB participant translating through pmap p:
// every subsequent shootdown targeting p posts an invalidation to the
// device and waits for its completion alongside the CPU barrier.
func (s *Shootdown) RegisterDevice(d DeviceTLB, p Pmap) {
	s.devices = append(s.devices, deviceMember{dev: d, pmap: p})
}

// Active reports whether a CPU is in the active set (tests/diagnostics).
func (s *Shootdown) Active(cpu int) bool { return s.active[cpu] }

// Idle reports whether a CPU is in the idle set.
func (s *Shootdown) Idle(cpu int) bool { return s.idle[cpu] }

// ActionNeeded reports whether a CPU has unprocessed consistency actions.
func (s *Shootdown) ActionNeeded(cpu int) bool { return s.actionNeeded[cpu] }

// ActionSnap is one queued consistency action in wire form.
type ActionSnap struct {
	ASID     uint16 `json:"asid,omitempty"`
	Start    uint32 `json:"start"`
	End      uint32 `json:"end"`
	FlushAll bool   `json:"flush_all,omitempty"`
	Kernel   bool   `json:"kernel,omitempty"`
}

// CPUSnap is one processor's protocol-side state in wire form, for the
// flight recorder's black boxes (DESIGN.md §13) and full-state snapshots
// (§14). QueueLen predates the deep Queue capture and is kept for black-
// box consumers.
type CPUSnap struct {
	CPU          int          `json:"cpu"`
	Active       bool         `json:"active"`
	Idle         bool         `json:"idle"`
	ActionNeeded bool         `json:"action_needed"`
	QueueLen     int          `json:"queue_len"`
	Overflow     bool         `json:"overflow"`
	Queue        []ActionSnap `json:"queue,omitempty"`
	LockHeld     bool         `json:"lock_held,omitempty"`
	LockOwner    int          `json:"lock_owner,omitempty"`
}

// DevMemberSnap is one registered device participant in wire form. The
// device's own protocol state (queue, watermark, IOTLB) is serialized by
// the machine layer; this records the membership view.
type DevMemberSnap struct {
	Dev    int  `json:"dev"`
	Online bool `json:"online"`
	Kernel bool `json:"kernel,omitempty"`
}

// Snap is the whole protocol state in wire form: the Section 4 data
// structures per CPU plus the cumulative counters, the in-flight
// initiator count, and the watchdog recovery-latency samples.
type Snap struct {
	Stats      Stats     `json:"stats"`
	InFlight   int       `json:"in_flight,omitempty"`
	MemberHeld bool      `json:"member_lock_held,omitempty"`
	CPUs       []CPUSnap `json:"cpus"`
	// Devices lists the registered device participants in registration
	// order; omitted on the CPU-only configurations every pre-device wire
	// form describes.
	Devices []DevMemberSnap `json:"devices,omitempty"`
	// RecoveryUS carries the watchdog recovery-latency samples, so a
	// restored world reports the same recovery percentiles as the
	// original (omitted while no rescue has happened).
	RecoveryUS []float64 `json:"recovery_us,omitempty"`
}

// Snapshot captures the active/idle sets, action queues (contents, not
// just depth), lock holders, and counters. Output is deterministic: CPUs
// in id order, queues in enqueue order.
func (s *Shootdown) Snapshot() Snap {
	snap := Snap{Stats: s.stats, InFlight: s.inFlight, MemberHeld: s.memberLock.Holds()}
	snap.RecoveryUS = append(snap.RecoveryUS, s.recoveryUS...)
	for cpu := range s.active {
		cs := CPUSnap{
			CPU:          cpu,
			Active:       s.active[cpu],
			Idle:         s.idle[cpu],
			ActionNeeded: s.actionNeeded[cpu],
			QueueLen:     len(s.queues[cpu]),
			Overflow:     s.cpus[cpu].overflow,
		}
		for _, a := range s.queues[cpu] {
			cs.Queue = append(cs.Queue, ActionSnap{
				ASID: uint16(a.ASID), Start: uint32(a.Start), End: uint32(a.End),
				FlushAll: a.FlushAll, Kernel: a.Pmap != nil && a.Pmap.IsKernel(),
			})
		}
		if owner, _, held := s.actionLocks[cpu].Owner(); held {
			cs.LockHeld, cs.LockOwner = true, owner
		}
		snap.CPUs = append(snap.CPUs, cs)
	}
	for _, dm := range s.devices {
		snap.Devices = append(snap.Devices, DevMemberSnap{
			Dev: dm.dev.ID(), Online: dm.dev.Online(), Kernel: dm.pmap.IsKernel(),
		})
	}
	return snap
}

// Begin starts an initiator-side critical section: disable all interrupts
// and leave the active set, so a concurrent initiator shooting at us does
// not wait for us (the crossed-shootdown deadlock avoidance). Call before
// taking the pmap lock.
func (s *Shootdown) Begin(ex *machine.Exec) *Op {
	prev := ex.DisableAll()
	s.active[ex.CPUID()] = false
	s.inFlight++
	return &Op{prevIPL: prev}
}

// Finish ends the initiator-side critical section after the pmap has been
// unlocked: synchronize any device participants, rejoin the active set,
// and restore the interrupt state, which delivers — and responds to — any
// shootdown interrupts that arrived while we were initiating.
//
// Device invalidations are posted here, after the pmap update, not in
// Sync before it. The ordering is deliberate and differs from the CPU
// barrier: CPU responders stall until the update is done, so a pre-update
// queue-and-interrupt cannot re-cache a stale entry; a device has no such
// interlock — it services its queue whenever it likes — so an invalidation
// completed before the PTEs changed could be followed by a device walk
// that re-caches the dying mapping, stale forever. Clearing the PTEs
// first and then invalidating (the ATS ordering) closes that window. The
// race window stays open (inFlight is still held) until every attached
// device completes or is escalated away.
func (s *Shootdown) Finish(ex *machine.Exec, op *Op) {
	if op.Synced && len(s.devices) > 0 {
		s.syncDevices(ex, op)
	}
	s.active[ex.CPUID()] = true
	s.inFlight--
	ex.RestoreIPL(op.prevIPL)
}

// syncDevices posts the finished operation's invalidation to every device
// attached to its pmap and collects the completion messages, escalating
// through the device watchdog ladder on the ones that never answer.
func (s *Shootdown) syncDevices(ex *machine.Exec, op *Op) {
	me := ex.CPUID()
	var devWaiters []devWaiter
	for _, dm := range s.devices {
		if dm.pmap != op.Pmap {
			continue
		}
		if !dm.dev.Online() {
			// A quarantined device is excluded up front — like an offline
			// CPU, it translates nothing.
			s.stats.DevOfflineSkipped++
			continue
		}
		if seq, ok := dm.dev.PostInvalidate(ex, op.Pmap.ASID(), op.Start.Page(), op.End, false); ok {
			s.stats.DevInvalsPosted++
			devWaiters = append(devWaiters, devWaiter{dev: dm.dev, seq: seq})
		}
	}
	if len(devWaiters) == 0 {
		return
	}
	s.stats.DevShootdowns++
	s.m.Tracer().Emit(trace.KindDevWaitBegin, int64(ex.Now()), me, "shootdown-dev-wait", int64(len(devWaiters)), 0)
	for _, dw := range devWaiters {
		s.waitForDevice(ex, dw)
	}
	s.m.Tracer().Emit(trace.KindSpinEnd, int64(ex.Now()), me, "shootdown-dev-wait", 0, 0)
}

// Sync is the initiator algorithm (phases 1 and 3's precondition). It must
// be called between Begin and Finish with the pmap lock held, before the
// pmap is modified. On return, every processor that could hold a stale
// entry for [start, end) is either spinning inactive, idle with the
// invalidation queued, or no longer using the pmap — so the caller may
// safely change the pmap. It returns the number of processors involved.
func (s *Shootdown) Sync(ex *machine.Exec, op *Op, p Pmap, start, end ptable.VAddr) int {
	me := ex.CPUID()
	m := s.m
	s.stats.Syncs++
	op.Pmap, op.Start, op.End, op.Synced = p, start, end, true
	t0 := ex.Now()
	kernel := int64(0)
	if p.IsKernel() {
		kernel = 1
	}
	s.m.Tracer().Emit(trace.KindSyncBegin, int64(t0), me, "shootdown-sync",
		int64(Action{Start: start.Page(), End: end}.Pages()), kernel)

	if inUseFor(p, me, start, end) {
		s.invalidateLocal(ex, p.ASID(), start, end)
	}

	action := Action{Pmap: p, ASID: p.ASID(), Start: start.Page(), End: end}
	var sendList []int
	var waitList []waiter
	queued := 0
	// The membership scan runs under the member lock, so a processor
	// mid-revive (resetting its protocol state under the same lock) is
	// seen either wholly offline or wholly reset — never half-way.
	mprev := s.memberLock.Lock(ex)
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		if cpu == me || !inUseFor(p, cpu, start, end) {
			continue
		}
		if !m.CPU(cpu).Online() {
			// A fail-stopped processor translates nothing and loses its
			// TLB before rejoining (full flush on online), so it is
			// excluded up front — the membership analogue of the paper's
			// idle-processor optimization.
			s.stats.OfflineSkipped++
			continue
		}
		lprev := s.actionLocks[cpu].Lock(ex)
		s.enqueue(ex, cpu, action)
		s.actionNeeded[cpu] = true
		s.actionLocks[cpu].Unlock(ex, lprev)
		queued++
		if !s.opts.DisableIdleOptimization && s.idle[cpu] {
			// Idle processors get the action queued but no interrupt;
			// they drain the queue before becoming active.
			s.stats.IdleSkipped++
			continue
		}
		waitList = append(waitList, waiter{cpu: cpu, inc: m.CPU(cpu).Incarnation()})
		if m.CPU(cpu).Pending(machine.VecIPI) {
			// An interrupt is already on its way; one responder pass
			// services every shootdown in progress.
			s.stats.IPIsCoalesced++
			continue
		}
		sendList = append(sendList, cpu)
	}
	s.memberLock.Unlock(ex, mprev)

	if tr := m.Tracer(); tr != nil {
		// Announce the responder set before any IPI goes out, so the
		// profiler can match the machine's post events to this instance.
		for _, w := range waitList {
			tr.Emit(trace.KindExpect, int64(ex.Now()), me, "", int64(w.cpu), 0)
		}
	}
	if len(sendList) > 0 {
		ex.SendIPI(sendList)
		s.stats.IPIsSent += uint64(len(sendList))
	}
	if len(waitList) > 0 {
		m.Tracer().Emit(trace.KindWaitBegin, int64(ex.Now()), me, "shootdown-wait", int64(len(waitList)), 0)
	}
	for _, w := range waitList {
		// A responder that stops using the pmap has flushed its entries
		// for it; no need to synchronize with it (refinement 1).
		s.waitForResponder(ex, p, w, start, end)
	}
	if len(waitList) > 0 {
		m.Tracer().Emit(trace.KindSpinEnd, int64(ex.Now()), me, "shootdown-wait", 0, 0)
	}
	if queued > 0 {
		s.stats.RemoteShootdowns++
	}

	// The instrumented "number of processors being shot at" counts the
	// processors that were interrupted and synchronized with — idle
	// processors get the action queued but are not shot at (Section 4).
	shot := len(waitList)
	if s.Trace != nil {
		pages := Action{Start: start.Page(), End: end}.Pages()
		s.Trace.LogInitiator(ex.Now(), me, p.IsKernel(), pages, shot, ex.Now()-t0)
	}
	m.Tracer().Emit(trace.KindSyncEnd, int64(ex.Now()), me, "shootdown-sync", 0, 0)
	return shot
}

// waiter is one waitList entry: the responder's CPU number plus the
// incarnation it was scanned at, so the wait can tell a fail/revive cycle
// apart from a slow acknowledgment.
type waiter struct {
	cpu int
	inc uint64
}

// waitForResponder implements the phase-1 wait on one processor: spin until
// it acknowledges (leaves the active set) or stops using the pmap. With no
// watchdog configured this is the paper's unbounded spin, which trusts the
// interrupt hardware (and assumes processors do not fail; fail-stop
// tolerance requires the watchdog). With a watchdog armed, a timed-out
// spin escalates in stages: re-send the IPI (it may have been dropped)
// under exponential backoff; after WatchdogMaxRetries force the
// straggler's queue into the overflow state so its eventual response is a
// single conservative full flush; and on every timeout re-check
// membership — a responder that fail-stopped will never acknowledge, and
// one that failed and revived lost its TLB and its queued actions to the
// online reset, so in either case there is nothing left to wait for. That
// membership rescue is the only way the wait is abandoned: Sync's contract
// is that the pmap may be modified only once the responder cannot use a
// stale entry, and a dead (or cold-rebooted) TLB satisfies it.
func (s *Shootdown) waitForResponder(ex *machine.Exec, p Pmap, w waiter, start, end ptable.VAddr) {
	cpu := w.cpu
	me := ex.CPUID()
	cond := &s.cpus[me].wait
	*cond = responderWait{s: s, cpu: cpu, p: p, start: start, end: end}
	if s.opts.WatchdogTimeout <= 0 {
		ex.SpinWhile(cond)
		return
	}
	timeout := s.opts.WatchdogTimeout
	var firstTimeout sim.Time
	escalated := false
	for retry := 0; !ex.SpinWhileFor(cond, timeout); retry++ {
		s.stats.WatchdogTimeouts++
		if firstTimeout == 0 {
			firstTimeout = ex.Now()
		}
		s.m.Tracer().Instant(int64(ex.Now()), me, trace.CatShootdown, "watchdog-timeout", int64(cpu), int64(retry))
		if s.memberRecheck(ex, w) {
			break
		}
		if !escalated && retry >= s.opts.WatchdogMaxRetries {
			escalated = true
			s.stats.WatchdogEscalations++
			s.m.Tracer().Instant(int64(ex.Now()), me, trace.CatShootdown, "watchdog-escalate", int64(cpu), 0)
			s.m.Tracer().Trip(int64(ex.Now()), "watchdog",
				fmt.Sprintf("cpu%d escalated to full flush after %d retries waiting on cpu%d", me, retry, cpu))
			lprev := s.actionLocks[cpu].Lock(ex)
			s.cpus[cpu].overflow = true
			s.queues[cpu] = s.queues[cpu][:0]
			s.actionLocks[cpu].Unlock(ex, lprev)
		}
		if !s.m.CPU(cpu).Pending(machine.VecIPI) {
			s.stats.WatchdogRetries++
			s.m.Tracer().Instant(int64(ex.Now()), me, trace.CatShootdown, "watchdog-retry", int64(cpu), int64(retry))
			ex.SendIPI([]int{cpu})
			s.stats.IPIsSent++
		}
		if timeout < s.opts.WatchdogBackoffMax {
			timeout *= 2
			if timeout > s.opts.WatchdogBackoffMax {
				timeout = s.opts.WatchdogBackoffMax
			}
		}
	}
	if firstTimeout != 0 {
		s.recoveryUS = append(s.recoveryUS, float64(ex.Now()-firstTimeout)/1000)
	}
}

// devWaiter is one outstanding device completion: the device plus the
// sequence number its invalidation was posted at.
type devWaiter struct {
	dev DeviceTLB
	seq uint64
}

// waitForDevice waits for one device's completion message. With no
// watchdog configured it is an unbounded spin trusting the device, the
// analogue of the paper's trust in the interrupt hardware. With a
// watchdog armed, a timed-out wait climbs the device escalation ladder:
// re-ring the doorbell (the initial ring may have been dropped and the
// device is merely unaware of the work), up to DevMaxRerings times under
// exponential backoff; then drain-and-reset the device (its full IOTLB
// flush satisfies every outstanding invalidation); and finally quarantine
// it — fail-stop the device, evict it from membership, and finish the
// shootdown without its acknowledgement, which is safe because a
// quarantined device's translations are poisoned and grant nothing. Each
// rescued wait's recovery latency (first timeout → quiescence) is
// recorded alongside the CPU watchdog's samples.
func (s *Shootdown) waitForDevice(ex *machine.Exec, w devWaiter) {
	d := w.dev
	me := ex.CPUID()
	cond := &s.cpus[me].devWait
	*cond = deviceWait{d: d, seq: w.seq}
	if s.opts.WatchdogTimeout <= 0 {
		ex.SpinWhile(cond)
		return
	}
	timeout := s.opts.WatchdogTimeout
	var firstTimeout sim.Time
	resetTried := false
	for retry := 0; !ex.SpinWhileFor(cond, timeout); retry++ {
		s.stats.DevCompletionTimeouts++
		if firstTimeout == 0 {
			firstTimeout = ex.Now()
		}
		s.m.Tracer().Instant(int64(ex.Now()), me, trace.CatShootdown, "dev-watchdog-timeout", int64(d.ID()), int64(retry))
		if !d.Online() {
			break // quarantined by a concurrent initiator; nothing to wait for
		}
		switch {
		case retry < s.opts.DevMaxRerings:
			s.stats.DevRerings++
			s.m.Tracer().Instant(int64(ex.Now()), me, trace.CatShootdown, "dev-watchdog-rering", int64(d.ID()), int64(retry))
			d.Ring(ex)
		case !resetTried:
			resetTried = true
			s.stats.DevResets++
			s.m.Tracer().Instant(int64(ex.Now()), me, trace.CatShootdown, "dev-watchdog-reset", int64(d.ID()), int64(retry))
			// On success the reset's flush completes every outstanding
			// request and the next spin exits; on failure (a wedged
			// device ignores reset too) the next timeout quarantines.
			d.Reset(ex)
		default:
			s.stats.DevQuarantines++
			s.m.Tracer().Instant(int64(ex.Now()), me, trace.CatShootdown, "dev-watchdog-quarantine", int64(d.ID()), int64(retry))
			// Quarantine before tripping so the black box's devices
			// section captures the post-escalation state.
			d.Quarantine(ex)
			s.m.Tracer().Trip(int64(ex.Now()), "watchdog",
				fmt.Sprintf("cpu%d quarantined device%d after %d retries awaiting completion %d", me, d.ID(), retry, w.seq))
		}
		if timeout < s.opts.WatchdogBackoffMax {
			timeout *= 2
			if timeout > s.opts.WatchdogBackoffMax {
				timeout = s.opts.WatchdogBackoffMax
			}
		}
	}
	if firstTimeout != 0 {
		s.recoveryUS = append(s.recoveryUS, float64(ex.Now()-firstTimeout)/1000)
	}
}

// memberRecheck is the watchdog's membership escalation: under the member
// lock (serializing against a concurrent online reset), test whether the
// awaited responder is still alive in the incarnation it was scanned at.
// If not, the wait is over — an offline processor cannot touch the pmap,
// and a revived one came back with an empty TLB and a reset action queue.
func (s *Shootdown) memberRecheck(ex *machine.Exec, w waiter) (rescued bool) {
	mprev := s.memberLock.Lock(ex)
	alive := s.m.CPU(w.cpu).Online() && s.m.CPU(w.cpu).Incarnation() == w.inc
	s.memberLock.Unlock(ex, mprev)
	if alive {
		return false
	}
	s.stats.WatchdogMembershipRescues++
	s.m.Tracer().Instant(int64(ex.Now()), ex.CPUID(), trace.CatShootdown, "watchdog-member-rescue", int64(w.cpu), int64(w.inc))
	return true
}

// enqueue adds an action to a CPU's queue; the caller holds the action
// lock. Overflow degrades to a full flush (detail 2 in Section 4).
func (s *Shootdown) enqueue(ex *machine.Exec, cpu int, a Action) {
	ex.ChargeInstr()
	s.stats.ActionsQueued++
	if s.cpus[cpu].overflow {
		return // already flushing everything
	}
	if len(s.queues[cpu]) >= s.opts.QueueSize {
		s.cpus[cpu].overflow = true
		s.queues[cpu] = s.queues[cpu][:0]
		s.stats.QueueOverflows++
		return
	}
	s.queues[cpu] = append(s.queues[cpu], a)
}

// respond is the responder algorithm (phases 2 and 4), run from the IPI
// handler and from GoActive. Further shootdown interrupts are already
// masked (the handler auto-masks; GoActive disables explicitly), so one
// pass services all shootdowns in progress.
func (s *Shootdown) respond(ex *machine.Exec) {
	me := ex.CPUID()
	t0 := ex.Now()
	s.m.Tracer().Begin(int64(t0), me, trace.CatShootdown, "shootdown-respond", 0, 0)
	prev := ex.DisableAll()
	// Fault injection: a slow or briefly wedged responder stalls before
	// doing any work, giving the initiator's watchdog something to time out
	// against. Interrupts are already masked, matching the failure mode of
	// a handler stuck in earlier non-preemptible work.
	if d := s.m.Faults().ResponderDelay(me); d > 0 {
		s.m.Tracer().Instant(int64(ex.Now()), me, trace.CatShootdown, "responder-fault-stall", int64(d), 0)
		ex.Stall(d)
	}
	for s.actionNeeded[me] {
		s.stats.Responses++
		// Phase 2: acknowledge, then stall until no initiator is mid-
		// update on a pmap this processor can translate through
		// (stallCond).
		s.active[me] = false
		s.m.Tracer().Emit(trace.KindStallBegin, int64(ex.Now()), me, "shootdown-stall", 0, 0)
		ex.SpinWhile(&s.cpus[me].stall)
		s.m.Tracer().Emit(trace.KindSpinEnd, int64(ex.Now()), me, "shootdown-stall", 0, 0)
		// Phase 4: the updates are done; invalidate and rejoin.
		lprev := s.actionLocks[me].Lock(ex)
		s.processActions(ex, me)
		s.actionNeeded[me] = false
		s.actionLocks[me].Unlock(ex, lprev)
		s.active[me] = true
	}
	ex.RestoreIPL(prev)
	if s.Trace != nil {
		s.Trace.LogResponder(ex.Now(), me, ex.Now()-t0)
	}
	s.m.Tracer().Emit(trace.KindRespondEnd, int64(ex.Now()), me, "shootdown-respond", 0, 0)
}

// processActions performs the queued invalidations for cpu; the caller
// holds the action lock. Beyond the flush threshold (or on overflow) a
// whole-buffer flush is faster than individual invalidates (detail 1).
func (s *Shootdown) processActions(ex *machine.Exec, cpu int) {
	defer func() {
		if ex.Closed() {
			return
		}
		s.queues[cpu] = s.queues[cpu][:0]
		s.cpus[cpu].overflow = false
	}()
	if s.cpus[cpu].overflow {
		s.flush(ex, tlb.ASIDNone)
		return
	}
	total := 0
	sharedASID := tlb.ASIDNone
	uniformASID := true
	for i, a := range s.queues[cpu] {
		if a.FlushAll {
			total = s.opts.FlushThreshold + 1
		} else {
			total += a.Pages()
		}
		if i == 0 {
			sharedASID = a.ASID
		} else if a.ASID != sharedASID {
			uniformASID = false
		}
	}
	if total > s.opts.FlushThreshold {
		// When every queued action targets one address space, a tagged
		// TLB can flush just that space; otherwise flush everything.
		if uniformASID {
			s.flush(ex, sharedASID)
		} else {
			s.flush(ex, tlb.ASIDNone)
		}
		return
	}
	for _, a := range s.queues[cpu] {
		// Section 10 (tagged TLBs): a space we retain entries for but are
		// not currently running gets flushed wholesale and released.
		if lr, ok := a.Pmap.(LazyReleaser); ok && lr.RetainsTLBEntries() {
			if s.userPmapOn == nil || s.userPmapOn(cpu) != a.Pmap {
				lr.ReleaseFrom(ex, cpu)
				s.stats.LazyReleases++
				continue
			}
		}
		ex.InvalidateTLBEntries(a.ASID, a.Start, a.End)
		s.stats.EntriesInvalidated += uint64(a.Pages())
	}
}

// invalidateLocal removes the initiator's own entries for the range,
// choosing between individual invalidates and a full flush.
func (s *Shootdown) invalidateLocal(ex *machine.Exec, asid tlb.ASID, start, end ptable.VAddr) {
	pages := Action{Start: start.Page(), End: end}.Pages()
	if pages > s.opts.FlushThreshold {
		s.flush(ex, asid)
		return
	}
	ex.InvalidateTLBEntries(asid, start, end)
	s.stats.EntriesInvalidated += uint64(pages)
}

// flush empties the TLB — per address space on tagged hardware when the
// flush is for a single space, otherwise entirely.
func (s *Shootdown) flush(ex *machine.Exec, asid tlb.ASID) {
	s.stats.FullFlushes++
	if s.m.Options().TLB.Tagged && asid != tlb.ASIDNone {
		ex.FlushTLBASID(asid)
		return
	}
	ex.FlushTLB()
}

// OnCPUOnline resets the protocol state of a processor rejoining the
// machine, running on the revived CPU itself before it executes anything
// else. Whatever was queued for (or half-processed by) its previous life
// is void: the hardware flushed the TLB on online, so there are no stale
// entries left to invalidate. The reset runs under the member lock so an
// initiator's membership scan never observes the rejoining processor
// half-reset, and under the action lock against an initiator that already
// saw us online and is enqueueing.
func (s *Shootdown) OnCPUOnline(ex *machine.Exec) {
	me := ex.CPUID()
	mprev := s.memberLock.Lock(ex)
	lprev := s.actionLocks[me].Lock(ex)
	s.queues[me] = s.queues[me][:0]
	s.cpus[me].overflow = false
	s.actionNeeded[me] = false
	s.actionLocks[me].Unlock(ex, lprev)
	s.idle[me] = false
	s.active[me] = true
	s.memberLock.Unlock(ex, mprev)
	s.m.Tracer().Instant(int64(ex.Now()), me, trace.CatShootdown, "shootdown-online-reset", int64(ex.CPU().Incarnation()), 0)
}

// GoIdle adds the processor to the idle set. The idle loop must keep
// interrupts enabled so late-arriving shootdown interrupts are serviced.
func (s *Shootdown) GoIdle(ex *machine.Exec) {
	s.idle[ex.CPUID()] = true
}

// GoActive removes the processor from the idle set, first draining any
// consistency actions queued while it was idle — an idle processor must
// not start translating through stale entries.
func (s *Shootdown) GoActive(ex *machine.Exec) {
	me := ex.CPUID()
	s.idle[me] = false
	if s.actionNeeded[me] {
		s.respond(ex)
	}
}
