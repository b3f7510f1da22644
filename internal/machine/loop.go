package machine

import (
	"math"

	"shootdown/internal/sim"
	"shootdown/internal/trace"
)

// Cond is a spin condition: SpinWhile spins while Holds reports true.
// Implementations live in existing per-CPU storage rather than closures,
// so parking one in a CPU's loop slot costs no allocation.
type Cond interface {
	Holds() bool
}

// IdleQueue is the work an idle processor polls for (Exec.Poll).
type IdleQueue interface {
	// Stopping reports that the world is winding down; it is tested
	// before each poll, without the lock.
	Stopping() bool
	// Ready reports that work is queued; it is tested with the lock held.
	Ready() bool
}

// The processor's loops — bus stalls, spins, idle polls and chunked
// advances — run as sim.Steppers in their CPU's one loop slot, so the
// engine steps them at each wake-up without resuming the execution
// context's coroutine (sim.Proc.Repeat). Each loop is written once,
// here, and charges exactly the sleeps, bus transactions, jitter draws
// and trace events of the straight-line code it replaces.
//
// An interrupt is the only thing a loop cannot do on the engine's stack.
// At every point where the straight-line code would call deliver, Step
// peeks at the CPU's pending vectors; when one is deliverable it ends
// the Repeat with handBack set and its phase pointing just past the
// delivery point. runLoop then delivers on the coroutine and re-enters
// the loop where it stopped. A handler may run loops of its own in the
// same slot, so runLoop keeps the interrupted loop on the coroutine's
// stack meanwhile.

// loopKind names the loop a slot runs.
type loopKind uint8

const (
	loopBus   loopKind = iota // Exec.busStall
	loopSpin                  // Exec.SpinWhile, SpinWhileFor, SpinLock.Lock's spin
	loopPoll                  // Exec.Poll
	loopChunk                 // Exec.AdvanceChunks
)

// loopPhase is where a loop resumes once its current sleep is over.
type loopPhase uint8

const (
	phBusNext     loopPhase = iota // issue the next bus transaction, or end the stall
	phSpinCheck                    // test the spin condition
	phSpinChecked                  // a check's time is charged: refetch the line if due
	phPollTop                      // test for shutdown, then start the lock acquisition
	phPollSpin                     // acquisition charged: spin until the lock is free
	phPollTake                     // lock free: take it and test the queue
	phPollRelease                  // release charged: drop the lock and lower the IPL
	phChunkSliced                  // a slice is charged and its trailing delivery done
)

// loop is a CPU's loop slot, one sim.Stepper for all four kinds.
type loop struct {
	ex       *Exec
	kind     loopKind
	phase    loopPhase
	irq      bool // the sleep in progress delivers interrupts (Advance), not only absorbs preemption
	handBack bool // Step stopped for an interrupt delivery, not at the loop's end
	timedOut bool // the spin gave up at its deadline
	// d is what is left of the sleep in progress.
	d sim.Time

	// txns counts the bus transactions a stall has still to issue.
	txns int

	// A spin tests cond, or for a lock acquisition lock (held by a live
	// owner), until deadline; checks numbers the test in progress from 1.
	// A chunked advance tests cond, its stop condition, after each slice.
	cond     Cond
	lock     *SpinLock
	checks   int
	deadline sim.Time

	// A poll tests queue under lock every tick. waitFrom is when its
	// lock spin began; prev is the IPL its acquisition saved.
	queue    IdleQueue
	tick     sim.Time
	waitFrom sim.Time
	prev     IPL

	// A chunked advance charges left in slices of at most tick.
	left sim.Time
}

// newLoop resets the CPU's loop slot for a loop of the given kind.
func (ex *Exec) newLoop(kind loopKind, phase loopPhase) *loop {
	l := &ex.cpu.loop
	*l = loop{ex: ex, kind: kind, phase: phase}
	return l
}

// runLoop runs the loop the caller set up in the CPU's slot to its end,
// delivering each interrupt the loop hands back on the way, and returns
// the slot.
func (ex *Exec) runLoop() *loop {
	l := &ex.cpu.loop
	for {
		ex.proc.Repeat(l)
		if !l.handBack {
			return l
		}
		l.handBack = false
		saved := *l
		ex.deliver()
		*l = saved
	}
}

// Step implements sim.Stepper: it finishes the sleep in progress, then
// runs the loop's phases until the next sleep, the end, or a delivery.
func (l *loop) Step(slept sim.Time) (sim.Time, bool) {
	ex := l.ex
	m := ex.machine
	if l.d > 0 {
		l.d -= slept
		if l.irq {
			if _, ok := ex.cpu.deliverable(); ok {
				return l.stop(true)
			}
		}
		if l.d > 0 {
			return l.d, true
		}
	}
	for {
		switch l.phase {
		case phBusNext:
			if l.txns == 0 {
				m.Tracer().Emit(trace.KindBusEnd, int64(ex.Now()), ex.cpu.id, "", 0, 0)
				if l.kind == loopBus {
					return l.stop(false)
				}
				l.checks++
				l.phase = phSpinCheck
				continue
			}
			l.txns--
			now := ex.Now()
			w := m.Bus.Reserve(now, 1)
			// Bus transactions are far too frequent to trace individually;
			// the signal is contention, so record only transactions that
			// queued behind another CPU's traffic (arg1 = queueing delay).
			if q := w - m.Bus.Occupancy(); q > 0 {
				m.Tracer().Emit(trace.KindBusWait, int64(now), ex.cpu.id, "bus-wait", int64(q), 0)
			}
			// Injected timing faults stretch the transaction beyond its
			// reserved slot (marginal bus arbitration, retried cycles).
			l.d, l.irq = w+m.faults.BusJitter(ex.cpu.id), false

		case phSpinCheck:
			if !l.spinning() {
				if l.kind == loopPoll {
					l.phase = phPollTake
					continue
				}
				return l.stop(false)
			}
			if l.lock != nil && l.checks == 1 {
				m.Tracer().Emit(trace.KindLockSpin, int64(ex.Now()), ex.cpu.id, l.lock.Name, 0, 0)
			}
			if ex.Now() >= l.deadline {
				l.timedOut = true
				return l.stop(false)
			}
			l.d, l.irq, l.phase = m.costs.SpinCheck, true, phSpinChecked

		case phSpinChecked:
			// A condition spin's check periodically misses in cache and
			// refetches the contended line over the bus; with many
			// processors spinning this is a significant share of bus
			// load (Section 7.1). A lock spin does not refetch.
			if period := m.costs.SpinBusPeriod; l.lock == nil && period > 0 && l.checks%period == 0 {
				l.busBegin("spin-refetch", 1)
				continue
			}
			l.checks++
			l.phase = phSpinCheck
			continue

		case phPollTop:
			if l.queue.Stopping() {
				return l.stop(false)
			}
			l.prev = ex.RaiseIPL(l.lock.MinIPL)
			l.d, l.irq, l.phase = m.jitter(m.costs.LockAcquire), false, phPollSpin

		case phPollSpin:
			l.waitFrom = ex.Now()
			l.checks, l.phase = 1, phSpinCheck
			continue

		case phPollTake:
			l.lock.take(ex, l.waitFrom)
			if l.queue.Ready() {
				return l.stop(false)
			}
			l.lock.mustOwn(ex)
			l.d, l.irq, l.phase = m.jitter(m.costs.LockRelease), false, phPollRelease

		case phPollRelease:
			l.lock.release(ex)
			ex.lowerIPL(l.prev)
			// The lowering's delivery point and the tick's first one are
			// the same instant: the check below serves both.
			l.d, l.irq, l.phase = l.tick, true, phPollTop

		case phChunkSliced:
			l.left -= min(l.left, l.tick)
			if l.left == 0 || l.cond.Holds() {
				return l.stop(false)
			}
			// The next slice's leading delivery point is the trailing one
			// just passed, so the check below finds nothing new.
			l.d = min(l.left, l.tick)
		}
		// Begin the sleep the phase set up: an Advance delivers before it
		// sleeps; a zero sleep goes straight on to the next phase.
		if l.irq {
			if _, ok := ex.cpu.deliverable(); ok {
				return l.stop(true)
			}
		}
		if l.d > 0 {
			return l.d, true
		}
	}
}

// stop ends the Repeat, for an interrupt delivery or at the loop's end.
func (l *loop) stop(handBack bool) (sim.Time, bool) {
	l.handBack = handBack
	return 0, false
}

// spinning evaluates the spin condition: cond, or for a lock spin that
// the lock is held, breaking it if its owner has fail-stopped.
func (l *loop) spinning() bool {
	if l.lock != nil {
		return l.lock.held && !l.lock.breakIfOwnerDead(l.ex.machine)
	}
	return l.cond.Holds()
}

// busBegin starts a stall of n bus transactions, issued one at a time.
func (l *loop) busBegin(site string, n int) {
	l.ex.machine.Tracer().Emit(trace.KindBusBegin, int64(l.ex.Now()), l.ex.cpu.id, site, int64(n), 0)
	l.txns, l.phase = n, phBusNext
}

// busStall issues n bus transactions one at a time, stalling for each
// queueing delay. Issuing individually matters under contention: other
// processors' transactions interleave with ours, so a multi-word burst
// (an interrupt state save, a page copy) degrades sharply once the bus
// saturates — the Section 7.1 congestion effect. site names the call
// site for the profiler's per-site bus contention histograms. The stall
// is atomic: it absorbs preemption and delivers no interrupt.
func (ex *Exec) busStall(site string, n int) {
	if n <= 0 {
		return
	}
	ex.newLoop(loopBus, phBusNext).busBegin(site, n)
	ex.runLoop()
}

// never is the deadline of a spin without one.
const never = sim.Time(math.MaxInt64)

// spin spins while cond holds, or for a lock acquisition while lock is
// held by a live owner, charging a spin check per iteration with
// interrupt delivery. It gives up at deadline and reports whether it did.
func (ex *Exec) spin(cond Cond, lock *SpinLock, deadline sim.Time) (timedOut bool) {
	l := ex.newLoop(loopSpin, phSpinCheck)
	l.cond, l.lock, l.deadline, l.checks = cond, lock, deadline, 1
	return ex.runLoop().timedOut
}

// SpinWhile spins (charging spin-check iterations, with interrupt
// delivery) while cond holds. Periodically the check misses in cache and
// fetches the contended line over the bus; with many processors spinning
// this is a significant share of bus load (Section 7.1).
func (ex *Exec) SpinWhile(cond Cond) { ex.spin(cond, nil, never) }

// SpinWhileFor is SpinWhile bounded by a virtual-time budget: it returns
// true when cond stopped holding, or false once at least budget has
// elapsed with cond still holding (the shootdown watchdog's timeout
// primitive). Its per-iteration costs are SpinWhile's, so enabling a
// watchdog that never fires does not perturb simulation results.
func (ex *Exec) SpinWhileFor(cond Cond, budget sim.Time) bool {
	return !ex.spin(cond, nil, ex.Now()+budget)
}

// Poll is an idle processor's wait for work. Each poll acquires l as
// Lock does, tests q.Ready, and if nothing is ready releases l as Unlock
// does and advances tick with interrupts deliverable. Poll returns with
// l held and the IPL its acquisition saved, for the caller to dequeue
// and Unlock, once Ready holds; it returns ok=false once q.Stopping
// holds, tested before each poll.
func (ex *Exec) Poll(l *SpinLock, q IdleQueue, tick sim.Time) (prev IPL, ok bool) {
	lp := ex.newLoop(loopPoll, phPollTop)
	lp.lock, lp.queue, lp.tick, lp.deadline = l, q, tick, never
	lp = ex.runLoop()
	return lp.prev, lp.phase == phPollTake
}

// AdvanceChunks charges d as a run of Advance(min(left, chunk)) slices,
// where left is what is still to charge, and returns left: 0 once d is
// all charged, or what remains when stop holds after a slice. stop is
// tested only between slices, once a slice is charged and its trailing
// delivery point is past, so it sees what that slice's handlers did; the
// first slice runs whatever stop says.
func (ex *Exec) AdvanceChunks(d, chunk sim.Time, stop Cond) (left sim.Time) {
	l := ex.newLoop(loopChunk, phChunkSliced)
	l.cond, l.tick, l.left = stop, chunk, d
	l.d, l.irq = min(d, chunk), true
	return ex.runLoop().left
}
