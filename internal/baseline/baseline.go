// Package baseline implements the alternative TLB-consistency mechanisms
// the paper discusses, for comparison against the Mach shootdown:
//
//   - None: no consistency at all. Exists to demonstrate that the simulated
//     hardware really produces the inconsistencies (§5.1's tester detects
//     them under this strategy).
//   - TimerFlush: §3's second technique — make no consistency effort at
//     operation time; every processor flushes its TLB on clock ticks, and
//     an operation that reduced permissions delays its return until every
//     processor using the pmap has flushed. Correct, interrupt-free, and
//     very slow per operation ("the additional buffer flushes required ...
//     can be expensive").
//   - HardwareRemote: §9's MC88200-style TLB with a remote-invalidation
//     port. The initiator shoots entries directly out of remote TLBs; no
//     interrupts, no responder involvement. Requires hardware with the
//     port and a TLB whose reference/modify writeback is interlocked or
//     absent (otherwise a blind writeback could still corrupt updates).
//   - PostponedIPI: §9's RP3/MIPS family — TLBs that never write back
//     reference/modify bits (or reload in software) don't require stalling
//     responders; the initiator updates the pmap first and interrupts
//     afterwards, and responders invalidate immediately instead of
//     spinning on the pmap lock.
package baseline

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
)

// None performs no TLB consistency actions whatsoever.
type None struct{}

var _ core.Strategy = None{}

// NewNone returns the do-nothing strategy.
func NewNone() None { return None{} }

// Name implements core.Strategy.
func (None) Name() string { return "none" }

// Begin implements core.Strategy.
func (None) Begin(*machine.Exec) *core.Op { return &core.Op{} }

// Sync implements core.Strategy.
func (None) Sync(*machine.Exec, *core.Op, core.Pmap, ptable.VAddr, ptable.VAddr) int { return 0 }

// Finish implements core.Strategy.
func (None) Finish(*machine.Exec, *core.Op) {}

// GoIdle implements core.Strategy.
func (None) GoIdle(*machine.Exec) {}

// GoActive implements core.Strategy.
func (None) GoActive(*machine.Exec) {}

// HardwareRemote invalidates remote TLB entries directly through the
// machine's remote-invalidation port (MC88200-style, §9): virtually all
// responder overhead disappears and the initiator no longer synchronizes.
type HardwareRemote struct {
	m     *machine.Machine
	stats RemoteStats
}

// RemoteStats counts hardware-remote invalidation events.
type RemoteStats struct {
	Syncs              uint64
	RemoteInvalidates  uint64
	EntriesInvalidated uint64
}

var _ core.Strategy = (*HardwareRemote)(nil)

// NewHardwareRemote builds the strategy, validating that the machine has
// the remote-invalidation port and a TLB that cannot corrupt page tables
// behind the initiator's back.
func NewHardwareRemote(m *machine.Machine) (*HardwareRemote, error) {
	if !m.Options().RemoteInvalidate {
		return nil, fmt.Errorf("baseline: hardware-remote strategy needs machine.Options.RemoteInvalidate")
	}
	if m.Options().TLB.Writeback == tlb.WritebackBlind {
		return nil, fmt.Errorf("baseline: hardware-remote strategy needs interlocked or no R/M writeback " +
			"(a blind writeback could still corrupt an in-flight pmap update)")
	}
	return &HardwareRemote{m: m}, nil
}

// Name implements core.Strategy.
func (h *HardwareRemote) Name() string { return "hardware-remote" }

// Stats returns the event counters.
func (h *HardwareRemote) Stats() RemoteStats { return h.stats }

// Begin implements core.Strategy. Interrupts need not be disabled — there
// is no cross-processor protocol to deadlock — but the pmap lock still
// serializes updates, so keep the op cheap.
func (h *HardwareRemote) Begin(ex *machine.Exec) *core.Op {
	return &core.Op{}
}

// Sync invalidates the initiator's own entries and records the range; the
// remote invalidations happen in Finish, *after* the page tables have been
// updated — otherwise hardware reload could re-cache a stale entry between
// the invalidation and the update. (§9 accepts the mirror-image cost:
// responders may fault on entries invalidated mid-update, which is rare.)
func (h *HardwareRemote) Sync(ex *machine.Exec, op *core.Op, p core.Pmap, start, end ptable.VAddr) int {
	h.stats.Syncs++
	op.Pmap, op.Start, op.End, op.Synced = p, start, end, true
	if p.InUse(ex.CPUID()) {
		ex.InvalidateTLBEntries(p.ASID(), start, end)
	}
	return 0
}

// Finish shoots the entries directly out of every other using processor's
// TLB, with no interrupts and no waiting.
func (h *HardwareRemote) Finish(ex *machine.Exec, op *core.Op) {
	if !op.Synced {
		return
	}
	me := ex.CPUID()
	p := op.Pmap
	pages := int((op.End - op.Start.Page() + mem.PageSize - 1) / mem.PageSize)
	for cpu := 0; cpu < h.m.NumCPUs(); cpu++ {
		if cpu == me || !p.InUse(cpu) {
			continue
		}
		ex.RemoteInvalidate(cpu, p.ASID(), op.Start, op.End)
		h.stats.RemoteInvalidates++
		h.stats.EntriesInvalidated += uint64(pages)
	}
}

// GoIdle implements core.Strategy.
func (h *HardwareRemote) GoIdle(*machine.Exec) {}

// GoActive implements core.Strategy.
func (h *HardwareRemote) GoActive(*machine.Exec) {}

// PostponedIPI is the §9 design for TLBs without asynchronous R/M-bit
// writeback: the initiator makes its pmap changes first, then interrupts
// the using processors, which invalidate immediately — no responder ever
// stalls and no barrier synchronization exists. The operation still waits
// for all invalidations before returning, preserving the shootdown
// guarantee that no stale entry is used after the operation completes.
type PostponedIPI struct {
	m          *machine.Machine
	pending    [][]core.Action
	needed     []bool
	locks      []machine.SpinLock
	waits      []postponedWait // per initiator: the target it is waiting on
	kernelPmap core.Pmap
	userPmapOn func(int) core.Pmap
	stats      PostponedStats
}

// PostponedStats counts postponed-IPI events.
type PostponedStats struct {
	Syncs     uint64
	IPIsSent  uint64
	Responses uint64
}

var _ core.Strategy = (*PostponedIPI)(nil)

// NewPostponedIPI builds the strategy, validating the TLB cannot write
// stale PTE images back into page tables (which would force stalling).
func NewPostponedIPI(m *machine.Machine) (*PostponedIPI, error) {
	if m.Options().TLB.Writeback == tlb.WritebackBlind {
		return nil, fmt.Errorf("baseline: postponed-IPI strategy needs a TLB without blind R/M writeback (RP3-style)")
	}
	s := &PostponedIPI{
		m:       m,
		pending: make([][]core.Action, m.NumCPUs()),
		needed:  make([]bool, m.NumCPUs()),
		locks:   make([]machine.SpinLock, m.NumCPUs()),
		waits:   make([]postponedWait, m.NumCPUs()),
	}
	for i := range s.locks {
		s.locks[i] = machine.SpinLock{Name: fmt.Sprintf("postponed%d", i), MinIPL: machine.IPLHigh}
	}
	m.SetHandler(machine.VecIPI, func(ex *machine.Exec, _ machine.Vector) {
		s.respond(ex)
	})
	return s, nil
}

// SetKernelPmap wires the environment (pmap.NewSystem calls it).
func (s *PostponedIPI) SetKernelPmap(p core.Pmap) { s.kernelPmap = p }

// SetUserPmapFn wires the environment.
func (s *PostponedIPI) SetUserPmapFn(f func(int) core.Pmap) { s.userPmapOn = f }

// Name implements core.Strategy.
func (s *PostponedIPI) Name() string { return "postponed-ipi" }

// Stats returns the event counters.
func (s *PostponedIPI) Stats() PostponedStats { return s.stats }

// Begin implements core.Strategy.
func (s *PostponedIPI) Begin(ex *machine.Exec) *core.Op {
	return &core.Op{}
}

// Sync only invalidates locally and records the range; the remote work is
// postponed until after the pmap update (Finish).
func (s *PostponedIPI) Sync(ex *machine.Exec, op *core.Op, p core.Pmap, start, end ptable.VAddr) int {
	s.stats.Syncs++
	op.Pmap, op.Start, op.End, op.Synced = p, start, end, true
	if p.InUse(ex.CPUID()) {
		ex.InvalidateTLBEntries(p.ASID(), start, end)
	}
	return 0
}

// Finish runs after the pmap is updated and unlocked: queue invalidations,
// interrupt the users, and wait for them to finish (they do not stall — a
// response is just the invalidation itself).
func (s *PostponedIPI) Finish(ex *machine.Exec, op *core.Op) {
	if !op.Synced {
		return
	}
	me := ex.CPUID()
	action := core.Action{ASID: op.Pmap.ASID(), Start: op.Start.Page(), End: op.End}
	var targets []int
	for cpu := 0; cpu < s.m.NumCPUs(); cpu++ {
		if cpu == me || !op.Pmap.InUse(cpu) {
			continue
		}
		prev := s.locks[cpu].Lock(ex)
		s.pending[cpu] = append(s.pending[cpu], action)
		s.needed[cpu] = true
		s.locks[cpu].Unlock(ex, prev)
		targets = append(targets, cpu)
	}
	if len(targets) == 0 {
		return
	}
	ex.SendIPI(targets)
	s.stats.IPIsSent += uint64(len(targets))
	w := &s.waits[me]
	for _, cpu := range targets {
		*w = postponedWait{s: s, cpu: cpu, pmap: op.Pmap}
		ex.SpinWhile(w)
	}
}

// postponedWait holds until target cpu has drained its postponed
// invalidations or stopped using pmap.
type postponedWait struct {
	s    *PostponedIPI
	cpu  int
	pmap core.Pmap
}

func (w *postponedWait) Holds() bool { return w.s.needed[w.cpu] && w.pmap.InUse(w.cpu) }

// respond drains the pending invalidations; no stall, no barrier.
func (s *PostponedIPI) respond(ex *machine.Exec) {
	me := ex.CPUID()
	s.stats.Responses++
	prev := s.locks[me].Lock(ex)
	for _, a := range s.pending[me] {
		ex.InvalidateTLBEntries(a.ASID, a.Start, a.End)
	}
	s.pending[me] = s.pending[me][:0]
	s.needed[me] = false
	s.locks[me].Unlock(ex, prev)
}

// GoIdle implements core.Strategy.
func (s *PostponedIPI) GoIdle(*machine.Exec) {}

// GoActive drains any invalidations queued while the processor was idle
// (its interrupts stayed enabled, so normally none remain).
func (s *PostponedIPI) GoActive(ex *machine.Exec) {
	if s.needed[ex.CPUID()] {
		s.respond(ex)
	}
}

// TimerFlush is §3's "delay use of changed mappings until all buffers have
// been flushed" technique: clock interrupts flush every TLB; an operation
// that reduced permissions spins until every processor using the pmap has
// flushed since the operation's pmap update.
type TimerFlush struct {
	m         *machine.Machine
	lastFlush []sim.Time
	waits     []flushWait // per initiator: the processor it is waiting on
	stats     TimerFlushStats
}

// TimerFlushStats counts timer-flush events.
type TimerFlushStats struct {
	Syncs   uint64
	Flushes uint64
}

var _ core.Strategy = (*TimerFlush)(nil)

// NewTimerFlush builds the strategy. It requires a non-blind writeback for
// the same reason the other stall-free designs do. The kernel must run a
// periodic timer; kernel.Config.TimerInterval bounds the operation latency.
func NewTimerFlush(m *machine.Machine) (*TimerFlush, error) {
	if m.Options().TLB.Writeback == tlb.WritebackBlind {
		return nil, fmt.Errorf("baseline: timer-flush strategy needs a TLB without blind R/M writeback")
	}
	return &TimerFlush{m: m, lastFlush: make([]sim.Time, m.NumCPUs()), waits: make([]flushWait, m.NumCPUs())}, nil
}

// Name implements core.Strategy.
func (s *TimerFlush) Name() string { return "timer-flush" }

// Stats returns the event counters.
func (s *TimerFlush) Stats() TimerFlushStats { return s.stats }

// OnTick is the kernel's clock-interrupt hook: flush this processor's TLB.
func (s *TimerFlush) OnTick(ex *machine.Exec) {
	ex.FlushTLB()
	s.stats.Flushes++
	s.lastFlush[ex.CPUID()] = ex.Now()
}

// Begin implements core.Strategy.
func (s *TimerFlush) Begin(ex *machine.Exec) *core.Op { return &core.Op{} }

// Sync invalidates locally and marks the op as needing the flush barrier.
func (s *TimerFlush) Sync(ex *machine.Exec, op *core.Op, p core.Pmap, start, end ptable.VAddr) int {
	s.stats.Syncs++
	op.Pmap, op.Start, op.End, op.Synced = p, start, end, true
	if p.InUse(ex.CPUID()) {
		ex.InvalidateTLBEntries(p.ASID(), start, end)
	}
	return 0
}

// Finish delays the operation's return until every processor using the
// pmap has flushed its TLB after the update — up to a full timer period.
func (s *TimerFlush) Finish(ex *machine.Exec, op *core.Op) {
	if !op.Synced {
		return
	}
	me := ex.CPUID()
	barrier := ex.Now()
	w := &s.waits[me]
	for cpu := 0; cpu < s.m.NumCPUs(); cpu++ {
		if cpu == me || !op.Pmap.InUse(cpu) {
			continue
		}
		*w = flushWait{s: s, cpu: cpu, pmap: op.Pmap, barrier: barrier}
		ex.SpinWhile(w)
	}
}

// flushWait holds until processor cpu has flushed its TLB after barrier
// or stopped using pmap.
type flushWait struct {
	s       *TimerFlush
	cpu     int
	pmap    core.Pmap
	barrier sim.Time
}

func (w *flushWait) Holds() bool {
	return w.s.lastFlush[w.cpu] <= w.barrier && w.pmap.InUse(w.cpu)
}

// GoIdle implements core.Strategy.
func (s *TimerFlush) GoIdle(*machine.Exec) {}

// GoActive implements core.Strategy.
func (s *TimerFlush) GoActive(*machine.Exec) {}
