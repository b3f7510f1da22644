package machine

import (
	"math"

	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
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

// The processor's loops — bus stalls, spins, idle polls, chunked
// advances and counter loops — run as sim.Steppers in their CPU's one
// loop slot, so the engine steps them at each wake-up without resuming
// the execution context's coroutine (sim.Proc.Repeat). Each loop is
// written once, here, and charges exactly the sleeps, bus transactions,
// jitter draws and trace events of the straight-line code it replaces.
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
	loopCount                 // Exec.CountLoop
)

// loopPhase is where a loop resumes once its current sleep is over.
type loopPhase uint8

const (
	// phCountTop is the zero phase, where a new Counter starts.
	phCountTop    loopPhase = iota // test the stop condition, then begin the read
	phCountWrite                   // begin the write
	phCountThink                   // begin the think time, or the next iteration
	phCountProbed                  // an access's probe is charged: probe the TLB
	phCountLoaded                  // the read's memory access is charged: load the word
	phCountStored                  // the store's bus transaction is done: store the word
	phBusNext                      // issue the next bus transaction, or end the stall
	phSpinCheck                    // test the spin condition
	phSpinChecked                  // a check's time is charged: refetch the line if due
	phPollTop                      // test for shutdown, then start the lock acquisition
	phPollSpin                     // acquisition charged: spin until the lock is free
	phPollTake                     // lock free: take it and test the queue
	phPollRelease                  // release charged: drop the lock and lower the IPL
	phChunkSliced                  // a slice is charged and its trailing delivery done
)

// loop is a CPU's loop slot, one sim.Stepper for all five kinds.
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

	// A counter loop keeps its state in its caller's Counter.
	ctr *Counter
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
				switch l.kind {
				case loopBus:
					return l.stop(false)
				case loopCount:
					l.phase = phCountStored
					continue
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
				if l.kind == loopChunk {
					return l.stop(false)
				}
				// The think time's run of slices is over: Compute's
				// preemption check, then the next iteration.
				c := l.ctr
				c.left = l.left
				if c.Resched.Holds() {
					return l.exit(CountResched, phCountThink)
				}
				l.phase = phCountTop
				continue
			}
			// The next slice's leading delivery point is the trailing one
			// just passed, so the check below finds nothing new.
			l.d = min(l.left, l.tick)

		case phCountTop:
			if l.ctr.Stop.Holds() {
				return l.exit(CountStopped, phCountTop)
			}
			if !l.probeBegin(false) {
				return l.exit(CountProbed, phCountTop)
			}

		case phCountWrite:
			if !l.probeBegin(true) {
				return l.exit(CountProbed, phCountWrite)
			}

		case phCountThink:
			c := l.ctr
			if c.left == 0 {
				l.phase = phCountTop
				continue
			}
			// As AdvanceChunks begins: Compute's stop is its preemption.
			l.cond, l.tick, l.left = c.Resched, c.Chunk, c.left
			l.d, l.irq, l.phase = min(c.left, c.Chunk), true, phChunkSliced

		case phCountProbed:
			if !l.probe() {
				return l.exit(CountProbed, l.phase)
			}
			if !l.ctr.write {
				l.d, l.irq, l.phase = m.jitter(m.costs.MemRead), false, phCountLoaded
				break
			}
			l.busBegin("store", 1)
			continue

		case phCountLoaded:
			c := l.ctr
			c.word = m.Phys.ReadWord(c.addr)
			if c.Resched.Holds() {
				return l.exit(CountResched, phCountWrite)
			}
			l.phase = phCountWrite
			continue

		case phCountStored:
			c := l.ctr
			m.Phys.WriteWord(c.addr, c.word+1)
			c.left = c.Think
			if c.Resched.Holds() {
				return l.exit(CountResched, phCountThink)
			}
			l.phase = phCountThink
			continue
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

// exit ends a counter loop, telling its caller why and where to resume.
func (l *loop) exit(why CountExit, at loopPhase) (sim.Time, bool) {
	l.ctr.exit, l.ctr.at = why, at
	return l.stop(false)
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

// Counter is the state of a counter loop (Exec.CountLoop), which runs
// the §5.1 tester child's iteration
//
//	for !Stop.Holds() {
//		v := Read(VA)
//		Write(VA, v+1)
//		Compute(Think)
//	}
//
// in the CPU's loop slot. Compute is the kernel's: Think charged as
// AdvanceChunks(Think, Chunk, Resched) runs. The caller keeps the
// Counter across the loop's exits, since servicing one may move the
// thread to another CPU, whose slot the loop re-enters.
type Counter struct {
	VA    ptable.VAddr
	Think sim.Time
	Chunk sim.Time
	// Stop is tested at the top of each iteration. Resched is the
	// kernel's preemption check, tested where Read, Write and Compute
	// test it: after each access, and after each run of think slices.
	Stop, Resched Cond

	word uint32 // the value the read loaded; the write stores word+1
	exit CountExit
	at   loopPhase // where the loop resumes
	left sim.Time  // think time still to charge

	// The access in progress, and its first try's probe.
	write  bool
	probed bool // the loop probed, and the result awaits CountAccess
	table  *ptable.Table
	asid   tlb.ASID
	entry  tlb.Entry
	hit    bool
	addr   mem.PAddr // the word a granted access reaches
}

// CountExit says why a counter loop returned to its caller.
type CountExit uint8

const (
	// CountStopped: Stop held at the top of an iteration.
	CountStopped CountExit = iota
	// CountProbed: an access needs more than a TLB hit with its
	// reference and modify bits set (a miss, a writeback, a protection
	// fault, no address space). The caller finishes it with CountAccess,
	// then runs its preemption check.
	CountProbed
	// CountResched: Resched held after an access or a run of think
	// slices. The caller runs its preemption check.
	CountResched
)

// CountLoop runs the counter loop c describes on the engine's stack,
// from where its last exit left it, until the next exit. It charges the
// sleeps, jitter draws, bus transactions, TLB probes, MMU observer calls
// and trace events of Read, Write and AdvanceChunks, in their order, and
// delivers interrupts where they do: only during the think time. An
// access that needs the coroutine is handed back after its one probe,
// which CountAccess does not repeat.
func (ex *Exec) CountLoop(c *Counter) CountExit {
	ex.newLoop(loopCount, c.at).ctr = c
	ex.runLoop()
	return c.exit
}

// CountAccess completes, on the coroutine, the access a CountProbed exit
// handed back. The first call finishes the loop's try from its probe; a
// later one, once the caller has serviced the fault the previous call
// returned, tries again from the start, as Read and Write do. Once the
// access is done the loop resumes after it.
func (ex *Exec) CountAccess(c *Counter) *Fault {
	var pte ptable.PTE
	var f *Fault
	if c.probed {
		c.probed = false
		pte, f = ex.probed(c.table, c.asid, c.VA, c.write, c.entry, c.hit)
	} else {
		pte, f = ex.translate(c.VA, c.write)
	}
	if f != nil {
		return f
	}
	if !c.write {
		c.word = ex.load(pte, c.VA)
		c.at = phCountWrite
		return nil
	}
	ex.store(pte, c.VA, c.word+1)
	c.left, c.at = c.Think, phCountThink
	return nil
}

// probeBegin starts an access's try: it resolves the translation root
// and begins the probe's charge. Without an address space there is no
// probe, and it reports false: the try is the coroutine's, to fault.
func (l *loop) probeBegin(write bool) bool {
	c, ex := l.ctr, l.ex
	c.write = write
	c.table, c.asid = ex.cpu.tableFor(c.VA)
	if c.table == nil {
		return false
	}
	l.d, l.irq, l.phase = ex.machine.jitter(ex.machine.costs.TLBProbe), false, phCountProbed
	return true
}

// probe probes the TLB for the access in progress. A hit that grants it
// outright is used, and probe reports true; anything else is kept for
// CountAccess to finish on the coroutine.
func (l *loop) probe() bool {
	c, ex := l.ctr, l.ex
	c.entry, c.hit = ex.cpu.TLB.Probe(c.VA, c.asid)
	pte := c.entry.PTE
	if !c.hit || c.write && !pte.Writable() || needFlags(pte, c.write) != 0 {
		c.probed = true
		return false
	}
	ex.use(c.table, c.asid, c.VA, c.write, pte)
	c.addr = pte.Frame().Addr(c.VA.Offset())
	return true
}
