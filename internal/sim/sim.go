// Package sim is a deterministic discrete-event simulation engine with one
// goroutine per simulated execution context ("proc").
//
// Exactly one proc runs at a time; the engine resumes whichever sleeping proc
// has the smallest virtual clock, so execution is serialized in virtual-time
// order and shared data structures touched only by procs need no locking.
// Determinism: ties are broken FIFO by scheduling sequence number unless a
// chaos seed is supplied, in which case equal-time procs run in a seeded
// random order (used to explore protocol interleavings).
//
// The one non-standard primitive is Preempt, which moves a sleeping proc's
// wake-up time earlier. The machine layer uses it to model interrupt
// delivery: a CPU mid-"instruction block" is woken at the interrupt arrival
// time, handles the interrupt, and then finishes the remainder of its block.
package sim

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
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

// State enumerates proc lifecycle states.
type State int

// Proc lifecycle states.
const (
	StateNew      State = iota // spawned, not yet run
	StateRunning               // currently executing
	StateSleeping              // in the run heap with a wake time
	StateBlocked               // waiting for an explicit Wake
	StateDone                  // returned
	StateHalted                // killed by Engine.Kill; never runs again
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

type yieldKind int

const (
	yieldSleep yieldKind = iota
	yieldBlock
	yieldDone
	yieldPanic
)

type yieldMsg struct {
	p    *Proc
	kind yieldKind
	err  error
}

// Proc is a simulated execution context backed by a goroutine.
type Proc struct {
	eng   *Engine
	name  string
	id    int
	clock Time // private virtual clock; valid when not running behind engine now
	wake  Time // scheduled wake time while sleeping
	seq   uint64
	state State

	preempted bool // wake time was moved earlier while sleeping
	heapIdx   int  // index in the run heap, -1 if not queued

	// waitReason and waitOn annotate what a blocked proc is waiting for,
	// feeding the engine's wait graph. Set via SetWaiting before blocking;
	// cleared by Wake (or ClearWaiting).
	waitReason string
	waitOn     []*Proc

	resume chan struct{}

	// Tag is arbitrary user data (e.g. the kernel thread running here).
	Tag interface{}
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
	runq    runHeap       //snap:derived rebuilt from the serialized proc states (sleeping procs re-keyed by wake time)
	cur     *Proc         //snap:transient the resumption in progress; snapshots are taken at serialized points between steps
	yield   chan yieldMsg //snap:transient host-side goroutine handshake plumbing, recreated by Run
	nextID  int
	nextSeq uint64
	stopped bool       //snap:transient stop latch; a restored world restarts from Run
	maxTime Time       //snap:derived configuration, reapplied from the experiment config on replay
	chaos   *rand.Rand //snap:derived rebuilt from the seed on restore and fast-forwarded chaos_draws times
	started bool       //snap:transient host-side lifecycle latch, re-armed by Run
	failure error      //snap:transient terminal failure latch; a restored world has not failed

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
	// time); it is the coordinate system for forced and recorded picks.
	tieSeq uint64
	// forced overrides tie decisions by ordinal: at tie i, forced[i]
	// (when in range) indexes the seq-sorted tied set instead of the chaos
	// pick. The chaos draw is still consumed — see pop.
	//snap:derived schedule overrides, reinstalled by the explorer that drives the replay
	forced []int
	// tieRec, if set, observes every tie decision (after any forced
	// override). It must not perturb the simulation.
	//snap:transient observation hook, reattached by the recorder
	tieRec func(TieDecision)

	// tracer, if set, receives typed scheduling events (proc run, sleep,
	// block, preempt, done) on per-proc timelines. Recording charges no
	// virtual time, so tracing cannot perturb simulation results.
	//snap:transient observation attachment, reattached by the session
	tracer *trace.Tracer
}

// Option configures an Engine.
type Option func(*Engine)

// WithChaos makes equal-time scheduling order pseudorandom with the given
// seed instead of FIFO, to explore different legal interleavings.
func WithChaos(seed int64) Option {
	return func(e *Engine) { e.chaos = rand.New(rand.NewSource(seed)) }
}

// WithMaxTime aborts Run with an error if virtual time exceeds t.
// It guards against runaway simulations (e.g. a livelocked spin loop).
func WithMaxTime(t Time) Option {
	return func(e *Engine) { e.maxTime = t }
}

// WithTracer attaches an observability tracer to the engine. A nil tracer
// is allowed and disables recording.
func WithTracer(t *trace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// Tracer returns the engine's tracer (possibly nil).
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// New creates an engine at virtual time zero.
func New(opts ...Option) *Engine {
	e := &Engine{yield: make(chan yieldMsg)}
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
// fn executes on its own goroutine; when fn returns the proc is done.
// Spawn may be called before Run or from inside a running proc.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:     e,
		name:    name,
		id:      e.nextID,
		clock:   e.now,
		state:   StateNew,
		heapIdx: -1,
		resume:  make(chan struct{}),
	}
	e.nextID++
	e.procs = append(e.procs, p)
	e.tracer.NameProc(p.id, name)
	e.tracer.Instant(int64(e.now), p.id, trace.CatSim, "spawn", 0, 0)
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				e.yield <- yieldMsg{p: p, kind: yieldPanic,
					err: fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())}
				return
			}
			e.yield <- yieldMsg{p: p, kind: yieldDone}
		}()
		fn(p)
	}()
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
	heap.Push(&e.runq, p)
}

// Run executes procs in virtual-time order until all are done, Stop is
// called, or no runnable proc remains. It returns ErrDeadlock (wrapped with
// diagnostics) if blocked procs remain, or the panic error of a proc that
// panicked.
func (e *Engine) Run() error { return e.RunUntil(-1) }

// RunUntil is Run bounded by virtual time limit (inclusive); limit < 0 means
// unbounded. Procs scheduled after the limit remain queued, and the engine's
// clock advances to the limit so a later RunUntil continues seamlessly.
func (e *Engine) RunUntil(limit Time) error { return e.run(limit, 0, false) }

// RunUntilStep is Run bounded by the scheduling-step cursor instead of
// virtual time: it pauses at the event boundary once StepCount reaches n
// (immediately if it already has). A later Run/RunUntil/RunUntilStep
// continues seamlessly, so a paused run is indistinguishable — byte for
// byte — from an uninterrupted one. This is the restore side of the
// snapshot contract: replaying a fresh world to a snapshot's step cursor
// lands on exactly the snapshotted state.
func (e *Engine) RunUntilStep(n uint64) error { return e.run(-1, n, true) }

// StepCount returns the number of proc resumptions completed so far.
func (e *Engine) StepCount() uint64 { return e.step }

// ChaosDraws returns the number of draws consumed from the chaos stream.
func (e *Engine) ChaosDraws() uint64 { return e.chaosDraws }

func (e *Engine) run(limit Time, stepLimit uint64, stepBounded bool) error {
	if e.cur != nil {
		panic("sim: RunUntil called re-entrantly from a proc")
	}
	e.stopped = false
	for len(e.runq) > 0 && !e.stopped {
		if stepBounded && e.step >= stepLimit {
			return nil
		}
		top := e.runq[0]
		if limit >= 0 && top.wake > limit {
			e.now = limit
			return nil
		}
		if e.maxTime > 0 && top.wake > e.maxTime {
			return fmt.Errorf("sim: virtual time limit %v exceeded (next wake %v, proc %q)\n%s",
				e.maxTime, top.wake, top.name, e.WaitGraph())
		}
		p := e.pop()
		if p.wake > e.now {
			e.now = p.wake
		}
		p.clock = e.now
		p.state = StateRunning
		e.cur = p
		e.tracer.Instant(int64(e.now), p.id, trace.CatSim, "run", 0, 0)
		p.resume <- struct{}{}
		msg := <-e.yield
		e.cur = nil
		e.step++
		switch msg.kind {
		case yieldSleep:
			// schedule() was already performed by Sleep.
		case yieldBlock:
			p.state = StateBlocked
		case yieldDone:
			p.state = StateDone
			e.tracer.Instant(int64(e.now), p.id, trace.CatSim, "done", 0, 0)
		case yieldPanic:
			p.state = StateDone
			e.failure = msg.err
			return msg.err
		}
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

// pop removes and returns the next proc to run, honoring chaos ordering
// among procs with identical wake times.
func (e *Engine) pop() *Proc {
	if e.chaos == nil || len(e.runq) < 2 {
		return heap.Pop(&e.runq).(*Proc)
	}
	// Collect all procs tied at the minimum wake time and pick one at random.
	minWake := e.runq[0].wake
	var tied []*Proc
	for _, p := range e.runq {
		if p.wake == minWake {
			tied = append(tied, p)
		}
	}
	if len(tied) == 1 {
		return heap.Pop(&e.runq).(*Proc)
	}
	sort.Slice(tied, func(i, j int) bool { return tied[i].seq < tied[j].seq })
	// The chaos draw is consumed even when a forced choice overrides it, so
	// the schedule after a forced prefix continues the base run's stream:
	// replaying with every recorded pick forced reproduces the base run
	// byte-identically, and flipping one pick perturbs only its causal
	// consequences.
	idx := e.chaos.Intn(len(tied))
	e.chaosDraws++
	ord := e.tieSeq
	e.tieSeq++
	if ord < uint64(len(e.forced)) {
		if f := e.forced[ord]; f >= 0 && f < len(tied) {
			idx = f
		}
	}
	if e.tieRec != nil {
		d := TieDecision{Seq: ord, Step: e.step, NowNS: int64(minWake), Pick: idx,
			Tied: make([]string, len(tied))}
		for i, q := range tied {
			d.Tied[i] = q.name
		}
		e.tieRec(d)
	}
	pick := tied[idx]
	heap.Remove(&e.runq, pick.heapIdx)
	return pick
}

// TieDecision records one chaos tie break: at engine step Step (time
// NowNS), the procs in Tied (sorted by scheduling sequence) were runnable
// at the same instant and Tied[Pick] ran. Seq is the decision's ordinal,
// the coordinate SetForcedTies overrides by.
type TieDecision struct {
	Seq   uint64   `json:"seq"`
	Step  uint64   `json:"step"`
	NowNS int64    `json:"now_ns"`
	Tied  []string `json:"tied"`
	Pick  int      `json:"pick"`
}

// SetForcedTies overrides the engine's tie decisions by ordinal: at tie i,
// picks[i] (when it indexes the tied set) replaces the chaos choice. Ties
// past the end of picks fall back to chaos. The underlying chaos draws are
// consumed either way, so forcing a prefix does not shift the stream for
// the free suffix. Requires a chaos engine (WithChaos); without one there
// are no tie decisions to force.
func (e *Engine) SetForcedTies(picks []int) { e.forced = picks }

// SetTieRecorder installs an observer for every tie decision (after any
// forced override). The recorder must not perturb the simulation. A nil
// recorder disables recording.
func (e *Engine) SetTieRecorder(fn func(TieDecision)) { e.tieRec = fn }

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

// LiveProcs returns the procs that have not finished or been halted.
func (e *Engine) LiveProcs() []*Proc {
	var out []*Proc
	for _, p := range e.procs {
		if p.state != StateDone && p.state != StateHalted {
			out = append(out, p)
		}
	}
	return out
}

// Kill halts a proc in place, modeling fail-stop: the proc transitions to
// StateHalted and never runs again. Unlike a panic or return, nothing
// unwinds — deferred calls do not run, so any simulated locks the proc
// holds stay held (exactly the hazard a fail-stopped processor creates;
// recovery is the survivors' problem). The backing goroutine stays parked
// on its resume channel for the life of the process, which is fine for a
// bounded simulation. The currently running proc cannot kill itself this
// way (it would deadlock the engine handshake); killing a done or halted
// proc is a no-op. Returns whether the proc was halted.
func (e *Engine) Kill(p *Proc) bool {
	switch p.state {
	case StateDone, StateHalted:
		return false
	case StateRunning:
		panic(fmt.Sprintf("sim: Kill called on running proc %q; a proc cannot fail-stop itself", p.name))
	}
	if p.heapIdx >= 0 {
		heap.Remove(&e.runq, p.heapIdx)
	}
	p.state = StateHalted
	p.ClearWaiting()
	e.tracer.Instant(int64(e.now), p.id, trace.CatSim, "halt", 0, 0)
	return true
}

func (p *Proc) mustBeCurrent(op string) {
	if p.eng.cur != p {
		panic(fmt.Sprintf("sim: %s called on proc %q which is not running (state %v)", op, p.name, p.state))
	}
}

// Sleep advances the proc's clock by up to d and yields to the engine.
// It returns the time actually slept, which is less than d only if another
// proc called Preempt on this one. Sleep(0) yields without advancing time
// (other procs at the same timestamp may run).
func (p *Proc) Sleep(d Time) Time {
	p.mustBeCurrent("Sleep")
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %d on proc %q", d, p.name))
	}
	start := p.clock
	p.preempted = false
	p.eng.tracer.Instant(int64(start), p.id, trace.CatSim, "sleep", int64(d), 0)
	p.eng.schedule(p, start+d)
	p.eng.yield <- yieldMsg{p: p, kind: yieldSleep}
	<-p.resume
	return p.clock - start
}

// Block parks the proc until another proc calls Wake on it.
func (p *Proc) Block() {
	p.mustBeCurrent("Block")
	p.eng.tracer.Instant(int64(p.clock), p.id, trace.CatSim, "block", 0, 0)
	p.eng.yield <- yieldMsg{p: p, kind: yieldBlock}
	<-p.resume
}

// SetWaiting annotates the proc with a human-readable reason — and,
// optionally, the procs it is waiting on — before it blocks, so that if the
// simulation deadlocks or hits its time limit the engine can report a wait
// graph instead of a bare list of stuck procs. Wake clears the annotation.
func (p *Proc) SetWaiting(reason string, on ...*Proc) {
	p.waitReason = reason
	p.waitOn = on
}

// ClearWaiting removes the proc's wait annotation.
func (p *Proc) ClearWaiting() {
	p.waitReason = ""
	p.waitOn = nil
}

// Waiting returns the proc's wait annotation (empty when not waiting).
func (p *Proc) Waiting() (reason string, on []*Proc) {
	return p.waitReason, p.waitOn
}

// Wake makes a blocked proc runnable at the engine's current time.
// Waking a proc that is not blocked is a no-op and returns false.
func (e *Engine) Wake(p *Proc) bool {
	if p.state != StateBlocked {
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
			WaitReason: p.waitReason,
		}
		if p.state == StateSleeping {
			ps.WakeNS = int64(p.wake)
			ps.Seq = p.seq
		}
		for _, d := range p.waitOn {
			ps.WaitOn = append(ps.WaitOn, d.name)
		}
		snap.Procs = append(snap.Procs, ps)
		if p.state == StateBlocked || p.waitReason != "" {
			blocked = append(blocked, p)
		}
	}
	for _, p := range findWaitCycle(blocked) {
		snap.WaitCycle = append(snap.WaitCycle, p.name)
	}
	return snap
}

// Restore completes a replay-based restore of the engine to snapshot s.
// Goroutine stacks cannot be captured, so restoring is rebuilding: the
// caller constructs a fresh world from the same configuration, replays it
// to s.Step (RunUntilStep), and then calls Restore, which verifies that
// the replay landed on exactly the snapshotted state — event cursor,
// clock, RNG stream position, and every live proc — and returns a diff
// error otherwise. After a nil return the engine may continue running and
// is guaranteed (by the byte-identity tests) to behave identically to the
// run the snapshot was taken from.
func (e *Engine) Restore(s EngineSnap) error {
	got := e.Snapshot()
	if got.Step != s.Step {
		return fmt.Errorf("sim: restore: replay stopped at step %d, snapshot is at step %d", got.Step, s.Step)
	}
	if got.NowNS != s.NowNS {
		return fmt.Errorf("sim: restore: clock %dns after replay, snapshot says %dns", got.NowNS, s.NowNS)
	}
	if got.ChaosDraws != s.ChaosDraws {
		return fmt.Errorf("sim: restore: %d chaos draws after replay, snapshot says %d", got.ChaosDraws, s.ChaosDraws)
	}
	a, err := json.Marshal(got)
	if err != nil {
		return fmt.Errorf("sim: restore: %v", err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("sim: restore: %v", err)
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("sim: restore: replayed engine state diverges from snapshot at step %d:\n replay:   %s\n snapshot: %s", s.Step, a, b)
	}
	return nil
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
		if p.state == StateBlocked || p.waitReason != "" {
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
		if p.waitReason != "" {
			fmt.Fprintf(&b, " waiting: %s", p.waitReason)
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
// not sleeping, or whose wake time is already at or before the target, is a
// no-op and returns false.
func (e *Engine) Preempt(p *Proc, at Time) bool {
	if p.state != StateSleeping && p.state != StateNew {
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
	heap.Fix(&e.runq, p.heapIdx)
	return true
}

// Preempted reports whether the proc's last Sleep was cut short by Preempt.
func (p *Proc) Preempted() bool { return p.preempted }

// runHeap is a min-heap on (wake, seq).
type runHeap []*Proc

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].wake != h[j].wake {
		return h[i].wake < h[j].wake
	}
	return h[i].seq < h[j].seq
}
func (h runHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *runHeap) Push(x interface{}) {
	p := x.(*Proc)
	p.heapIdx = len(*h)
	*h = append(*h, p)
}
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	p.heapIdx = -1
	*h = old[:n-1]
	return p
}
