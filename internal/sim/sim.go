// Package sim is a deterministic discrete-event simulation engine with one
// coroutine per simulated execution context ("proc").
//
// Exactly one proc runs at a time; the engine resumes whichever sleeping proc
// has the smallest virtual clock, so execution is serialized in virtual-time
// order and shared data structures touched only by procs need no locking.
//
// Each proc body runs as an iter.Pull coroutine (coro.go): the engine
// resumes a proc by calling its next function, and Sleep and Block hand
// control back by calling its yield function. A coroutine switch hands
// the thread straight to the other goroutine, bypassing the Go
// scheduler's run queues, so it costs a fraction of a channel round
// trip. The run queue is a tournament tree keyed on wake time alone
// (runTree), whose root says whether the next wake is tied. A proc keeps
// its leaf while it runs, and a Sleep that leaves it alone at the next
// wake continues in place, doing the engine's step bookkeeping itself
// instead of switching out and straight back. A wait loop written as a
// Stepper and run with Proc.Repeat goes further: once the proc has
// yielded, the engine calls its Step on its own stack at each wake-up
// and resumes the coroutine only when the loop ends (DESIGN.md §18).
// iter needs go1.23 while go.mod stays at go 1.22 (the bench module pins
// go 1.22 and builds against this one), so coro.go alone carries a
// go1.23 build constraint; building the package takes a go1.23 or newer
// toolchain.
//
// A body that has not ended when its world is done — sleeping, blocked,
// halted by Kill, parked in a Repeat loop, or never entered — keeps a
// suspended goroutine, and through it the world, alive until Close
// unwinds it. A closed engine is dead, so the unwinding changes nothing.
//
// Determinism: ties are broken FIFO by scheduling sequence number unless a
// chaos seed is supplied (WithChaos), in which case equal-time procs run in
// an order drawn from a random stream with that seed: a different legal
// interleaving per seed, the same one on every run with it. Chaos ordering
// is the norm, not a debugging mode: every workload world turns it on with
// its world seed (workload.AppConfig.Seed becomes kernel.Config.ChaosSeed),
// so a world's seed picks its tie order along with its cost jitter. Only a
// zero seed, and engines a test builds bare, run FIFO.
//
// The one non-standard primitive is Preempt, which moves a sleeping proc's
// wake-up time earlier. The machine layer uses it to model interrupt
// delivery: a CPU mid-"instruction block" is woken at the interrupt arrival
// time, handles the interrupt, and then finishes the remainder of its block.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"shootdown/internal/trace"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Microseconds converts a virtual timestamp to microseconds as a float,
// the unit the paper reports in.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Duration converts t to a time.Duration from simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// ErrDeadlock is returned by Run when live procs remain but none can run.
var ErrDeadlock = errors.New("sim: deadlock: blocked procs remain but none are runnable")

// ErrTimeLimit is wrapped by the error Run returns when the next wake-up
// lies beyond the engine's virtual-time bound.
var ErrTimeLimit = errors.New("sim: virtual time limit")

// State enumerates proc lifecycle states.
type State int

// Proc lifecycle states.
const (
	StateNew      State = iota // spawned, not yet run
	StateRunning               // currently executing
	StateSleeping              // in the run queue with a wake time
	StateBlocked               // waiting for an explicit Wake
	StateDone                  // returned
	StateHalted                // killed by Engine.Kill; never resumed, unwound by Engine.Close
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	case StateHalted:
		return "halted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Proc is a simulated execution context backed by a coroutine.
type Proc struct {
	eng   *Engine
	name  string
	id    int
	clock Time // private virtual clock; valid when not running behind engine now
	wake  Time // scheduled wake time while sleeping
	seq   uint64
	state State

	preempted bool // wake time was moved earlier while sleeping
	slot      int  // leaf slot in the run queue while new, sleeping or running; -1 otherwise

	// waitReason and waitOn annotate what a blocked proc is waiting for,
	// feeding the engine's wait graph. Set via SetWaiting before blocking;
	// cleared by Wake (or ClearWaiting). The reason renders only when a
	// snapshot or the wait graph reads it.
	waitReason fmt.Stringer
	waitOn     []*Proc

	// loop is the Stepper of the Repeat the proc yielded from: while it
	// is set, run calls its Step at each wake-up instead of resuming the
	// coroutine, and clears it when the loop ends.
	loop Stepper

	// next resumes the body until its next Sleep or Block (true) or its
	// end (false); yield, called from inside the body, suspends it and
	// returns control to next's caller; stop ends a body that has not
	// ended (Engine.Close). All three are set by start (coro.go).
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	// panicked is the error a panicking body ended with, set by start's
	// recover wrapper.
	panicked error
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// ID returns the proc's unique id.
func (p *Proc) ID() int { return p.id }

// State returns the proc's lifecycle state.
func (p *Proc) State() State { return p.state }

// Clock returns the proc's private virtual clock.
func (p *Proc) Clock() Time { return p.clock }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Engine schedules procs in virtual time.
type Engine struct {
	now     Time
	procs   []*Proc
	runq    runTree //snap:derived rebuilt from the serialized proc states (each queued proc's leaf keyed by its wake time)
	cur     *Proc   //snap:transient the resumption in progress; snapshots are taken at serialized points between steps
	tied    []*Proc //snap:transient scratch for the procs tied at the minimum wake time
	nextID  int
	nextSeq uint64
	stopped bool       //snap:transient stop latch; a restored world restarts from Run
	maxTime Time       //snap:derived configuration, reapplied from the experiment config on replay
	chaos   *rand.Rand //snap:derived rebuilt from the seed on restore and fast-forwarded chaos_draws times
	started bool       //snap:transient host-side lifecycle latch, re-armed by Run
	failure error      //snap:transient terminal failure latch; a restored world has not failed
	// limit and stepLimit bound the run in progress (virtual time, < 0 for
	// none; step cursor), so Sleep can tell whether run would resume its
	// proc next.
	limit     Time   //snap:transient set by every Run call
	stepLimit uint64 //snap:transient set by every Run call
	// inlineSteps counts the resumptions Sleep and Repeat began in place,
	// without a coroutine switch; loopSteps counts those run served by
	// calling a Repeat loop's Step on its own stack, also without one.
	inlineSteps uint64 //snap:transient host-cost counter; in-place and switched steps are the same event
	loopSteps   uint64 //snap:transient host-cost counter; loop steps and switched steps are the same event
	// stepping is set while a Stepper's Step runs, so Sleep and Block can
	// refuse to run inside one.
	stepping bool //snap:transient set only within a step; snapshots are taken between steps
	// closed is set by Close: the world is dead, and its engine entry
	// points unwind or do nothing.
	closed bool //snap:transient host-side lifecycle latch; closing changes no simulated state

	// step counts completed proc resumptions — the engine's monotone event
	// cursor. Snapshots key on it: rebuilding a world from the same
	// configuration and replaying to the same step reproduces the same
	// state, because everything between steps is deterministic.
	step uint64
	// chaosDraws counts draws consumed from the chaos stream, so a
	// snapshot can attest the stream position without exposing rand
	// internals.
	chaosDraws uint64
	// tieSeq numbers the chaos tie decisions (≥2 procs at the minimum wake
	// time).
	tieSeq uint64
	// tieRec, if set, observes every tie decision. It must not perturb the
	// simulation.
	//snap:transient observation hook, reattached by the recorder
	tieRec func(tieDecision)

	// tracer, if set, is the observation stream (trace.Stream); the engine
	// records scheduling events (proc run, sleep, block, preempt, done) on
	// per-proc timelines. Observation charges no virtual time.
	//snap:transient observation attachment, reattached by the session
	tracer *trace.Tracer
}

// Option configures an Engine.
type Option func(*Engine)

// WithChaos makes equal-time scheduling order pseudorandom with the given
// seed instead of FIFO: each seed runs its own legal interleaving, every
// time. The kernel passes it its Config.ChaosSeed, which every workload
// world sets to its seed.
func WithChaos(seed int64) Option {
	return func(e *Engine) { e.chaos = rand.New(rand.NewSource(seed)) }
}

// WithMaxTime aborts Run with an error if virtual time exceeds t.
// It guards against runaway simulations (e.g. a livelocked spin loop).
func WithMaxTime(t Time) Option {
	return func(e *Engine) { e.maxTime = t }
}

// WithTracer attaches the observation stream to the engine; the machine
// and protocol layers built on the engine emit into it too. A nil tracer
// is allowed and disables observation.
func WithTracer(t *trace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// Tracer returns the engine's observation stream (possibly nil).
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// New creates an engine at virtual time zero.
func New(opts ...Option) *Engine {
	e := &Engine{runq: newRunTree()}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Current returns the currently running proc, or nil.
func (e *Engine) Current() *Proc { return e.cur }

// Spawn creates a proc that will first run at the current virtual time.
// fn executes as its own coroutine; when fn returns the proc is done.
// Spawn may be called before Run or from inside a running proc. On a
// closed engine it does nothing: the proc it returns is done and never
// runs.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		return &Proc{eng: e, name: name, id: -1, state: StateDone, slot: -1}
	}
	p := &Proc{
		eng:   e,
		name:  name,
		id:    e.nextID,
		clock: e.now,
		state: StateNew,
		slot:  -1,
	}
	e.nextID++
	e.procs = append(e.procs, p)
	e.tracer.NameProc(p.id, name)
	e.tracer.Instant(int64(e.now), p.id, trace.CatSim, "spawn", 0, 0)
	p.start(fn)
	e.schedule(p, e.now)
	return p
}

func (e *Engine) schedule(p *Proc, at Time) {
	p.wake = at
	p.seq = e.nextSeq
	e.nextSeq++
	if p.state != StateNew {
		p.state = StateSleeping
	}
	if p.slot >= 0 {
		e.runq.set(p) // the running proc re-keyed by Sleep
	} else {
		e.runq.push(p)
	}
}

// Run executes procs in virtual-time order until all are done, Stop is
// called, or no runnable proc remains. It returns ErrDeadlock (wrapped with
// diagnostics) if blocked procs remain, or the panic error of a proc that
// panicked.
func (e *Engine) Run() error { return e.RunUntil(-1) }

// RunUntil is Run bounded by virtual time limit (inclusive); limit < 0 means
// unbounded. Procs scheduled after the limit remain queued, and the engine's
// clock advances to the limit so a later RunUntil continues seamlessly.
func (e *Engine) RunUntil(limit Time) error { return e.run(limit, math.MaxUint64) }

// RunUntilStep is Run bounded by the scheduling-step cursor instead of
// virtual time: it pauses at the event boundary once StepCount reaches n
// (immediately if it already has). A later Run/RunUntil/RunUntilStep
// continues seamlessly, so a paused run is indistinguishable — byte for
// byte — from an uninterrupted one. This is the restore side of the
// snapshot contract: replaying a fresh world to a snapshot's step cursor
// lands on exactly the snapshotted state.
func (e *Engine) RunUntilStep(n uint64) error { return e.run(-1, n) }

// StepCount returns the number of proc resumptions completed so far.
func (e *Engine) StepCount() uint64 { return e.step }

// InlineSteps returns how many of the resumptions so far began in place,
// in Sleep or a Repeat loop, without a coroutine switch. Each kind of
// resumption is one step of StepCount.
func (e *Engine) InlineSteps() uint64 { return e.inlineSteps }

// LoopSteps returns how many of the resumptions so far run served by
// calling a Repeat loop's Step on its own stack, without a coroutine
// switch. A wake-up whose Step ends the loop is not one: run switches to
// the coroutine to return from Repeat. Steps neither in place nor loop
// steps were switched.
func (e *Engine) LoopSteps() uint64 { return e.loopSteps }

// ChaosDraws returns the number of draws consumed from the chaos stream.
func (e *Engine) ChaosDraws() uint64 { return e.chaosDraws }

func (e *Engine) run(limit Time, stepLimit uint64) error {
	if e.cur != nil {
		panic("sim: RunUntil called re-entrantly from a proc")
	}
	if e.closed {
		panic("sim: Run called on a closed engine")
	}
	e.stopped = false
	e.limit, e.stepLimit = limit, stepLimit
	for !e.runq.empty() && !e.stopped {
		if e.step >= stepLimit {
			return nil
		}
		wake := e.runq.nodes[1].wake
		if limit >= 0 && wake > limit {
			e.now = limit
			return nil
		}
		if e.maxTime > 0 && wake > e.maxTime {
			return fmt.Errorf("%w %v exceeded (next wake %v, proc %q)\n%s",
				ErrTimeLimit, e.maxTime, wake, e.ties()[0].name, e.WaitGraph())
		}
		p := e.pick()
		from := p.clock
		e.enter(p)
		if p.loop != nil && e.loopStep(p, p.clock-from) {
			e.cur = nil
			e.step++
			continue
		}
		_, suspended := p.next()
		e.cur = nil
		e.step++
		if suspended {
			// Sleep or Block already recorded the proc's new state.
			continue
		}
		e.runq.remove(p)
		p.state = StateDone
		if p.panicked != nil {
			e.failure = p.panicked
			return p.panicked
		}
		e.tracer.Instant(int64(e.now), p.id, trace.CatSim, "done", 0, 0)
	}
	if e.stopped {
		return nil
	}
	if blocked := e.BlockedProcs(); len(blocked) > 0 {
		names := make([]string, len(blocked))
		for i, p := range blocked {
			names[i] = p.name
		}
		sort.Strings(names)
		return fmt.Errorf("%w: %v\n%s", ErrDeadlock, names, e.WaitGraph())
	}
	return nil
}

// enter makes p, picked from the run queue, the running proc at its wake
// time.
func (e *Engine) enter(p *Proc) {
	if p.wake > e.now {
		e.now = p.wake
	}
	p.clock = e.now
	p.state = StateRunning
	e.cur = p
	e.tracer.Instant(int64(e.now), p.id, trace.CatSim, "run", 0, 0)
}

// loopStep runs the Repeat loop p yielded from on the engine's stack,
// from a wake-up that slept slept, and reports whether p sleeps again.
// Otherwise the loop is over and run resumes the coroutine, which
// returns from Repeat; a panic in Step is handed to the coroutine to
// raise there, so it ends p as it would have in the literal loop.
func (e *Engine) loopStep(p *Proc, slept Time) (asleep bool) {
	defer func() {
		if r := recover(); r != nil {
			e.stepping = false
			p.loop = nil
			p.panicked = panicError(p, r)
			asleep = false
		}
	}()
	if d, more := e.callStep(p.loop, slept); more {
		e.loopSteps++
		if p.loopOn(p.loop, d) {
			return true
		}
	}
	p.loop = nil
	return false
}

// callStep calls s.Step, marking the engine as inside a Step meanwhile.
func (e *Engine) callStep(s Stepper, slept Time) (Time, bool) {
	e.stepping = true
	d, more := s.Step(slept)
	e.stepping = false
	return d, more
}

// resumesNext reports whether run, were p to yield now from Sleep, would
// resume p next with no tie draw: p alone holds the minimum wake and the
// run's bounds let it take one more step. Sleep has just given p the
// newest seq, so p alone at the minimum wake is exactly p first in
// (wake, seq) order, and chaos has no tie to draw for.
func (e *Engine) resumesNext(p *Proc) bool {
	root := e.runq.nodes[1]
	return root.id == int32(p.id) && root.count == 1 && !e.stopped && e.step+1 < e.stepLimit &&
		(e.limit < 0 || p.wake <= e.limit) && (e.maxTime <= 0 || p.wake <= e.maxTime)
}

// pick returns the next proc to run: the first in (wake, seq) order, or
// under chaos one drawn from the procs tied at the minimum wake. The proc
// stays in the run queue: it keeps its leaf while it runs, until Sleep
// re-keys it or Block or its end frees it.
func (e *Engine) pick() *Proc {
	if root := e.runq.nodes[1]; root.count == 1 {
		return e.procs[root.id]
	}
	tied := e.ties()
	if e.chaos == nil {
		return tied[0]
	}
	idx := e.chaos.Intn(len(tied))
	e.chaosDraws++
	e.tieSeq++
	if e.tieRec != nil {
		d := tieDecision{Step: e.step, NowNS: int64(tied[0].wake), Pick: idx,
			Tied: make([]string, len(tied))}
		for i, q := range tied {
			d.Tied[i] = q.name
		}
		e.tieRec(d)
	}
	return tied[idx]
}

// ties returns the queued procs at the minimum wake sorted by seq, in
// the engine's scratch slice.
func (e *Engine) ties() []*Proc {
	e.tied = e.runq.ties(1, e.procs, e.tied[:0])
	slices.SortFunc(e.tied, func(a, b *Proc) int { return cmp.Compare(a.seq, b.seq) })
	return e.tied
}

// tieDecision records one chaos tie break: at engine step Step (time
// NowNS), the procs in Tied (sorted by scheduling sequence) were runnable
// at the same instant and Tied[Pick] ran.
type tieDecision struct {
	Step  uint64
	NowNS int64
	Tied  []string
	Pick  int
}

// setTieRecorder installs an observer for every tie decision. The
// recorder must not perturb the simulation. A nil recorder disables
// recording.
func (e *Engine) setTieRecorder(fn func(tieDecision)) { e.tieRec = fn }

// TieCount returns the number of tie decisions made so far.
func (e *Engine) TieCount() uint64 { return e.tieSeq }

// Stop halts Run after the current proc yields. Call from inside a proc.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called during the current Run.
func (e *Engine) Stopped() bool { return e.stopped }

// BlockedProcs returns the procs in StateBlocked.
func (e *Engine) BlockedProcs() []*Proc {
	var out []*Proc
	for _, p := range e.procs {
		if p.state == StateBlocked {
			out = append(out, p)
		}
	}
	return out
}

// LiveProcs counts the procs that have not finished or been halted,
// without allocating: the device-load generator polls it.
func (e *Engine) LiveProcs() int {
	n := 0
	for _, p := range e.procs {
		if p.state != StateDone && p.state != StateHalted {
			n++
		}
	}
	return n
}

// Kill halts a proc in place, modeling fail-stop: the proc transitions to
// StateHalted and never runs again. Unlike a panic or return, nothing
// unwinds while the engine runs — deferred calls do not run, so any
// simulated locks the proc holds stay held (exactly the hazard a
// fail-stopped processor creates; recovery is the survivors' problem).
// The backing coroutine stays suspended in its last Sleep, Block or
// Repeat until Close unwinds it with the rest of the dead world. The
// currently running proc cannot kill itself this way (it would never
// yield back to the engine); killing a done or halted proc, or any proc
// of a closed engine, is a no-op. Returns whether the proc was halted.
func (e *Engine) Kill(p *Proc) bool {
	if e.closed {
		return false
	}
	switch p.state {
	case StateDone, StateHalted:
		return false
	case StateRunning:
		panic(fmt.Sprintf("sim: Kill called on running proc %q; a proc cannot fail-stop itself", p.name))
	}
	if p.slot >= 0 {
		e.runq.remove(p)
	}
	p.state = StateHalted
	p.ClearWaiting()
	e.tracer.Instant(int64(e.now), p.id, trace.CatSim, "halt", 0, 0)
	return true
}

func (p *Proc) mustBeCurrent(op string) {
	if p.eng.closed {
		panic(closedPanic{})
	}
	if p.eng.cur != p {
		panic(fmt.Sprintf("sim: %s called on proc %q which is not running (state %v)", op, p.name, p.state))
	}
	if p.eng.stepping {
		panic(fmt.Sprintf("sim: %s called from inside a Stepper's Step on proc %q; Step must return its next sleep instead", op, p.name))
	}
}

// Sleep advances the proc's clock by up to d, letting every proc due
// before then run first. It returns the time actually slept, which is
// less than d only if another proc called Preempt on this one. Sleep(0)
// does not advance time but lets the other procs due now run first.
func (p *Proc) Sleep(d Time) Time {
	p.mustBeCurrent("Sleep")
	e := p.eng
	start := p.sleep(d)
	if e.resumesNext(p) {
		e.resumeInPlace(p)
	} else {
		p.suspend()
	}
	return p.clock - start
}

// suspend yields the running proc's coroutine back to run, and unwinds
// the body instead if Close ended it meanwhile.
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		panic(closedPanic{})
	}
}

// sleep schedules the running proc to wake d after its clock, which it
// returns: Sleep's bookkeeping, shared with Repeat and run's loop steps.
func (p *Proc) sleep(d Time) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %d on proc %q", d, p.name))
	}
	e := p.eng
	start := p.clock
	if d >= maxWake-start {
		panic(fmt.Sprintf("sim: sleep %d on proc %q at %d reaches the end of virtual time", d, p.name, start))
	}
	p.preempted = false
	e.tracer.Instant(int64(start), p.id, trace.CatSim, "sleep", int64(d), 0)
	e.schedule(p, start+d)
	return start
}

// resumeInPlace ends the step of p, which has just slept and would be
// run's next pick (resumesNext), and begins the next one as run would:
// yielding would only make run switch straight back.
func (e *Engine) resumeInPlace(p *Proc) {
	e.step++
	e.inlineSteps++
	e.enter(p)
}

// Stepper is a wait loop written as its step function. Step is given how
// long the previous sleep lasted (0 on the first call; less than asked
// if the proc was preempted) and returns the next sleep, or more=false
// once the loop is over.
type Stepper interface {
	Step(slept Time) (d Time, more bool)
}

// Repeat runs s to its end. It behaves exactly like
//
//	for d, more := s.Step(0); more; d, more = s.Step(p.Sleep(d)) {}
//
// with the same steps, sequence numbers, tie draws and trace events;
// only the host stack Step runs on differs. Once the proc has yielded,
// the engine calls Step at each wake-up on its own stack and resumes the
// proc's coroutine only when Step ends the loop, so a loop's wake-ups
// cost no coroutine switch. Step must only compute: Sleep or Block
// called from inside it panics. A panic in Step ends the proc with that
// panic, as it would in the loop above.
func (p *Proc) Repeat(s Stepper) {
	p.mustBeCurrent("Repeat")
	if d, more := p.eng.callStep(s, 0); !more || !p.loopOn(s, d) {
		return
	}
	p.loop = s
	p.suspend()
	// run ran the rest of the loop, or caught Step's panic.
	if err := p.panicked; err != nil {
		p.panicked = nil
		panic(stepPanic{err})
	}
}

// loopOn sleeps d for s and, while each wake-up continues in place as
// Sleep's would (resumesNext), runs s on, on whichever stack calls it.
// It reports whether p is left asleep with the loop unfinished, for the
// caller to yield to run or, in run, to return.
func (p *Proc) loopOn(s Stepper, d Time) (asleep bool) {
	e := p.eng
	for more := true; more; {
		start := p.sleep(d)
		if !e.resumesNext(p) {
			return true
		}
		e.resumeInPlace(p)
		d, more = e.callStep(s, p.clock-start)
	}
	return false
}

// panicError is the error a proc that panicked with r ends with. Called
// while the panic unwinds, it captures the panicking stack.
func panicError(p *Proc, r any) error {
	return fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
}

// stepPanic carries a panic that Step raised on the engine's stack into
// the proc's coroutine, where start's recover turns it back into the
// proc's panic error.
type stepPanic struct{ err error }

// closedPanic unwinds a body that Close ended, or that calls Sleep, Block
// or Repeat on a closed engine; start's recover swallows it once the
// body's deferred calls have run.
type closedPanic struct{}

func (closedPanic) String() string { return "sim: engine closed" }

// Close ends the world: it stops every proc whose body has not ended —
// new, sleeping, blocked, halted or parked in a Repeat loop — in spawn
// order, so each coroutine's goroutine exits and the world can be
// collected. A stopped body unwinds from its suspension point and its
// deferred calls run; they find the engine closed and must leave no
// trace: Sleep, Block and Repeat unwind at once, Wake, Preempt and Kill
// do nothing, Spawn returns a done proc, and the tracer is detached.
// Simulated code that defers work checks Closed itself. Proc states,
// clocks and the step cursor stay as they were, so Snapshot reads the
// same world before and after. A panic other than the unwinding one
// while a body unwinds breaks that contract, and Close re-raises it.
// Run on a closed engine panics; Close is idempotent and must not be
// called from a proc.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	if e.cur != nil {
		panic("sim: Close called from a running proc")
	}
	e.closed = true
	e.tracer = nil
	for _, p := range e.procs {
		if p.state == StateDone {
			continue
		}
		p.stop()
		if p.panicked != nil {
			panic(fmt.Sprintf("sim: proc %q panicked while Close unwound it: %v", p.name, p.panicked))
		}
	}
}

// Closed reports whether Close has ended the world.
func (e *Engine) Closed() bool { return e.closed }

// Block parks the proc until another proc calls Wake on it.
func (p *Proc) Block() {
	p.mustBeCurrent("Block")
	p.eng.tracer.Instant(int64(p.clock), p.id, trace.CatSim, "block", 0, 0)
	p.eng.runq.remove(p)
	p.state = StateBlocked
	p.suspend()
}

// Reason is a fixed wait annotation for SetWaiting.
type Reason string

func (r Reason) String() string { return string(r) }

// SetWaiting annotates the proc with a human-readable reason — and,
// optionally, the procs it is waiting on — before it blocks, so that if the
// simulation deadlocks or hits its time limit the engine can report a wait
// graph instead of a bare list of stuck procs. Wake clears the annotation.
// The reason is rendered only when read, so a caller that keeps it in a
// reusable record blocks without allocating; a nil reason clears it.
func (p *Proc) SetWaiting(reason fmt.Stringer, on ...*Proc) {
	p.waitReason = reason
	p.waitOn = on
}

// ClearWaiting removes the proc's wait annotation.
func (p *Proc) ClearWaiting() {
	p.waitReason = nil
	p.waitOn = nil
}

// Waiting returns the proc's wait annotation (empty when not waiting).
func (p *Proc) Waiting() (reason string, on []*Proc) {
	return p.reason(), p.waitOn
}

// reason renders the proc's wait reason ("" when not waiting).
func (p *Proc) reason() string {
	if p.waitReason == nil {
		return ""
	}
	return p.waitReason.String()
}

// Wake makes a blocked proc runnable at the engine's current time.
// Waking a proc that is not blocked, or any proc of a closed engine, is a
// no-op and returns false.
func (e *Engine) Wake(p *Proc) bool {
	if p.state != StateBlocked || e.closed {
		return false
	}
	p.ClearWaiting()
	e.tracer.Instant(int64(e.now), p.id, trace.CatSim, "wake", 0, 0)
	e.schedule(p, e.now)
	return true
}

// ProcSnap is one proc's scheduling state in wire form, for the flight
// recorder's black boxes (DESIGN.md §13) and full-state snapshots
// (DESIGN.md §14).
type ProcSnap struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	State   string `json:"state"`
	ClockNS int64  `json:"clock_ns"`
	// WakeNS is the scheduled wake time while sleeping (0 otherwise).
	WakeNS     int64    `json:"wake_ns,omitempty"`
	Seq        uint64   `json:"seq,omitempty"`
	Preempted  bool     `json:"preempted,omitempty"`
	WaitReason string   `json:"wait_reason,omitempty"`
	WaitOn     []string `json:"wait_on,omitempty"`
}

// EngineSnap is the engine's scheduling state in wire form: the event
// cursor and RNG stream position, every live proc, plus any wait cycle
// among the blocked ones (the same cycle the deadlock diagnostic renders).
type EngineSnap struct {
	NowNS      int64      `json:"now_ns"`
	Step       uint64     `json:"step"`
	NextID     int        `json:"next_id"`
	NextSeq    uint64     `json:"next_seq"`
	ChaosDraws uint64     `json:"chaos_draws,omitempty"`
	Ties       uint64     `json:"ties,omitempty"`
	Procs      []ProcSnap `json:"procs"`
	WaitCycle  []string   `json:"wait_cycle,omitempty"`
}

// Snapshot captures the engine's scheduling state in a fixed wire order.
// Procs appear in spawn order (deterministic), finished procs are skipped.
// The snapshot is a pure read: taking one never perturbs the simulation.
func (e *Engine) Snapshot() EngineSnap {
	snap := EngineSnap{
		NowNS:      int64(e.now),
		Step:       e.step,
		NextID:     e.nextID,
		NextSeq:    e.nextSeq,
		ChaosDraws: e.chaosDraws,
		Ties:       e.tieSeq,
	}
	live := 0
	for _, p := range e.procs {
		if p.state != StateDone {
			live++
		}
	}
	if live > 0 {
		snap.Procs = make([]ProcSnap, 0, live)
	}
	var blocked []*Proc
	for _, p := range e.procs {
		if p.state == StateDone {
			continue
		}
		ps := ProcSnap{
			ID:         p.id,
			Name:       p.name,
			State:      p.state.String(),
			ClockNS:    int64(p.clock),
			Preempted:  p.preempted,
			WaitReason: p.reason(),
		}
		if p.state == StateSleeping {
			ps.WakeNS = int64(p.wake)
			ps.Seq = p.seq
		}
		for _, d := range p.waitOn {
			ps.WaitOn = append(ps.WaitOn, d.name)
		}
		snap.Procs = append(snap.Procs, ps)
		if p.state == StateBlocked || ps.WaitReason != "" {
			blocked = append(blocked, p)
		}
	}
	for _, p := range findWaitCycle(blocked) {
		snap.WaitCycle = append(snap.WaitCycle, p.name)
	}
	return snap
}

// WaitGraph renders a readable report of every live proc that is blocked or
// carries a wait annotation: one line per proc with its state, reason, and
// dependencies, followed by any wait cycle found among the dependencies.
// It returns "" when nothing is waiting.
func (e *Engine) WaitGraph() string {
	var nodes []*Proc
	for _, p := range e.procs {
		if p.state == StateDone {
			continue
		}
		if p.state == StateBlocked || p.reason() != "" {
			nodes = append(nodes, p)
		}
	}
	if len(nodes) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("wait graph:\n")
	for _, p := range nodes {
		fmt.Fprintf(&b, "  %q [%v]", p.name, p.state)
		if reason := p.reason(); reason != "" {
			fmt.Fprintf(&b, " waiting: %s", reason)
		}
		if len(p.waitOn) > 0 {
			names := make([]string, len(p.waitOn))
			for i, d := range p.waitOn {
				names[i] = fmt.Sprintf("%q [%v]", d.name, d.state)
			}
			fmt.Fprintf(&b, " -> %s", strings.Join(names, ", "))
		}
		b.WriteByte('\n')
	}
	if cycle := findWaitCycle(nodes); len(cycle) > 0 {
		names := make([]string, len(cycle))
		for i, p := range cycle {
			names[i] = fmt.Sprintf("%q", p.name)
		}
		fmt.Fprintf(&b, "  cycle: %s -> %q\n", strings.Join(names, " -> "), cycle[0].name)
	}
	return strings.TrimRight(b.String(), "\n")
}

// findWaitCycle returns the first dependency cycle among the given procs'
// waitOn edges, or nil. Standard three-color DFS.
func findWaitCycle(nodes []*Proc) []*Proc {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Proc]int, len(nodes))
	var stack []*Proc
	var cycle []*Proc
	var visit func(p *Proc) bool
	visit = func(p *Proc) bool {
		color[p] = gray
		stack = append(stack, p)
		for _, d := range p.waitOn {
			switch color[d] {
			case gray:
				// Found: slice the stack from d's position.
				for i, q := range stack {
					if q == d {
						cycle = append(cycle, stack[i:]...)
						return true
					}
				}
			case white:
				if visit(d) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[p] = black
		return false
	}
	for _, p := range nodes {
		if color[p] == white && visit(p) {
			return cycle
		}
	}
	return nil
}

// Preempt moves a sleeping proc's wake time earlier, to max(at, now).
// The victim's in-progress Sleep returns early with the reduced duration and
// Preempted() reports true until its next Sleep. Preempting a proc that is
// not sleeping, or whose wake time is already at or before the target, or
// any proc of a closed engine, is a no-op and returns false.
func (e *Engine) Preempt(p *Proc, at Time) bool {
	if p.state != StateSleeping && p.state != StateNew || e.closed {
		return false
	}
	if at < e.now {
		at = e.now
	}
	if p.wake <= at {
		return false
	}
	p.wake = at
	p.preempted = true
	e.tracer.Instant(int64(e.now), p.id, trace.CatSim, "preempt", int64(at), 0)
	e.runq.set(p)
	return true
}

// Preempted reports whether the proc's last Sleep was cut short by Preempt.
func (p *Proc) Preempted() bool { return p.preempted }

// runTree is the run queue: a tournament (winner) tree over leaf slots,
// keyed on wake alone. Each queued proc owns one leaf, its slot, and
// free slots are reused. Each internal node holds its subtree's minimum
// wake, how many queued procs share that wake, and the id of one of
// them (an index into Engine.procs, which Spawn fills in id order), so
// the root holds the next wake and says whether it is tied.
// The run order is (wake, seq), but seq only breaks ties and every tie
// set is sorted by seq before it is used, so the key needs no seq.
// Re-keying a leaf replays its fixed path to the root.
type runTree struct {
	// nodes is the whole tree in one block: nodes[1] is the root, node
	// i's children are 2i and 2i+1, and the second half are the leaves,
	// slot s at nodes[len(nodes)/2+s].
	nodes []node
	free  int32 // first free slot, -1 when every slot is taken
}

// node is one tree node. A free leaf has wake maxWake, count 0 and, in
// id, the next free slot; an internal node over free leaves has count 0.
type node struct {
	wake  Time
	count int32 // queued procs in the subtree at wake
	id    int32 // Proc.id of one of them
}

const (
	maxWake = Time(math.MaxInt64)
	// minLeaves is the tree's first size: a 16-CPU world queues 17 to 35
	// procs, so most worlds never grow it.
	minLeaves = 32
)

func newRunTree() runTree {
	t := runTree{free: -1}
	t.grow()
	return t
}

// empty reports whether no proc is queued.
func (t *runTree) empty() bool { return t.nodes[1].count == 0 }

// join is the node over sibling subtrees a and b: the lesser wake, the
// procs at it on both sides, and a's id if a holds it, else b's. A free
// leaf holds maxWake, which no proc reaches (sleep refuses it), so the
// id is a free-list link only where the count is 0. The branches compile
// to conditional moves, because which way a compare goes is as good as
// random.
func join(a, b node) node {
	w := min(a.wake, b.wake)
	c, id := int32(0), b.id
	if b.wake == w {
		c = b.count
	}
	if a.wake == w {
		c += a.count
		id = a.id
	}
	return node{w, c, id}
}

// grow doubles the leaves in a new block, keeping every slot's number,
// and chains the new slots onto the free list.
func (t *runTree) grow() {
	old := len(t.nodes) / 2
	leaves := max(2*old, minLeaves)
	n := make([]node, 2*leaves)
	copy(n[leaves:], t.nodes[old:])
	for s := leaves - 1; s >= old; s-- {
		n[leaves+s] = node{maxWake, 0, t.free}
		t.free = int32(s)
	}
	for i := leaves - 1; i > 0; i-- {
		n[i] = join(n[2*i], n[2*i+1])
	}
	t.nodes = n
}

// push gives p a free leaf keyed by its wake.
func (t *runTree) push(p *Proc) {
	if t.free < 0 {
		t.grow()
	}
	p.slot = int(t.free)
	t.free = t.nodes[len(t.nodes)/2+p.slot].id
	t.set(p)
}

// set re-keys p's leaf by its wake.
func (t *runTree) set(p *Proc) { t.replay(p.slot, node{p.wake, 1, int32(p.id)}) }

// remove frees p's leaf.
func (t *runTree) remove(p *Proc) {
	t.replay(p.slot, node{maxWake, 0, t.free})
	t.free = int32(p.slot)
	p.slot = -1
}

// replay stores leaf at slot s and recomputes every node on its path to
// the root from the node below it and that node's sibling.
func (t *runTree) replay(s int, leaf node) {
	n := t.nodes
	i := len(n)/2 + s
	n[i] = leaf
	for ; i > 1; i >>= 1 {
		leaf = join(leaf, n[i^1])
		n[i>>1] = leaf
	}
}

// ties appends to buf the queued procs at node i's wake in its subtree,
// looking each up in procs by id; ties(1, ...) is every proc at the next
// wake. It descends only into subtrees that hold that wake and stops at
// any that holds it once, so it visits O(ties × depth) nodes however
// long the queue.
func (t *runTree) ties(i int, procs, buf []*Proc) []*Proc {
	if nd := t.nodes[i]; nd.count == 1 {
		return append(buf, procs[nd.id])
	}
	for c := 2 * i; c <= 2*i+1; c++ {
		if t.nodes[c].wake == t.nodes[i].wake && t.nodes[c].count > 0 {
			buf = t.ties(c, procs, buf)
		}
	}
	return buf
}
