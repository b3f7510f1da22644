// Package kernel is the simulated Mach kernel: tasks (address spaces) with
// threads scheduled across the machine's processors, an idle loop per CPU
// that participates in the shootdown algorithm's idle-processor
// optimization, timer-driven preemption, and the thread-level syscall
// surface (memory access with fault handling, vm operations, fork) that
// the evaluation workloads are written against.
package kernel

import (
	"errors"
	"fmt"
	"strings"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/machine"
	"shootdown/internal/oracle"
	"shootdown/internal/pmap"
	"shootdown/internal/profile"
	"shootdown/internal/sim"
	"shootdown/internal/snap"
	"shootdown/internal/trace"
	"shootdown/internal/vm"
	"shootdown/internal/xpr"
)

// Config assembles a simulated machine and kernel.
type Config struct {
	// Machine configures the simulated multiprocessor.
	Machine machine.Options
	// Shootdown tunes the Mach shootdown algorithm (used when Strategy
	// is nil).
	Shootdown core.Options
	// StrategyFactory overrides the consistency mechanism (package
	// baseline provides alternatives); it receives the freshly built
	// machine. Nil means the Mach shootdown.
	StrategyFactory func(*machine.Machine) (core.Strategy, error)
	// TraceSize sets the xpr buffer capacity (default 1<<20 records).
	TraceSize int
	// SampleResponders lists the CPUs on which responder events are
	// recorded (the paper sampled 5 of 16). Nil records all.
	SampleResponders []int
	// TimerInterval is the clock-tick period; 0 disables the timer (and
	// with it preemption), as for the basic-cost experiments.
	TimerInterval sim.Time
	// Quantum is the scheduling quantum enforced by the timer.
	Quantum sim.Time
	// IdleTick is the idle loop's poll period.
	IdleTick sim.Time
	// DevicePollTick is the device service loop's poll period — how often
	// an idle device checks its doorbell (machines with devices only).
	DevicePollTick sim.Time
	// ChaosSeed randomizes equal-time scheduling order (0 = FIFO).
	ChaosSeed int64
	// ForcedTies overrides the engine's chaos tie decisions by ordinal
	// (sim.Engine.SetForcedTies); the DPOR-lite explorer uses it to steer a
	// replay down a specific interleaving. Only meaningful with ChaosSeed.
	ForcedTies []int
	// MaxTime bounds virtual time (guards against livelock); default 10
	// virtual minutes.
	MaxTime sim.Time
	// TraceOff starts with instrumentation disabled (the perturbation
	// experiment compares instrumented and uninstrumented runs).
	TraceOff bool
	// Tracer, when set, receives typed span/instant events from every
	// layer (sim, machine, tlb, shootdown, kernel). Recording charges no
	// virtual time and consumes no simulation randomness, so results are
	// bit-identical with and without it.
	Tracer *trace.Tracer
	// Oracle, when true, attaches an independent TLB-consistency checker
	// (internal/oracle) that shadows every page table and fails Run if any
	// TLB grants an access through a stale translation. Checking charges no
	// virtual time and consumes no simulation randomness.
	Oracle bool
	// Profiler, when set, attaches the virtual-time profiler (DESIGN.md
	// §12): phase attribution on every CPU, per-shootdown critical paths,
	// and lock/bus contention histograms. Like the tracer it charges no
	// virtual time and consumes no simulation randomness.
	Profiler *profile.Profiler
	// Flight, when set, attaches the flight recorder (DESIGN.md §13): a
	// bounded ring of recent events plus state providers for every layer,
	// dumped as a black box when the watchdog escalates, the oracle flags
	// a divergence, or the run dies (deadlock / virtual-time bound). When
	// no Tracer is configured the recorder's own ring becomes the kernel's
	// tracer, so black boxes always carry recent events.
	Flight *trace.Recorder
}

func (c Config) withDefaults() Config {
	if c.TraceSize == 0 {
		c.TraceSize = 1 << 20
	}
	if c.Quantum == 0 {
		c.Quantum = 25_000_000 // 25 ms
	}
	if c.IdleTick == 0 {
		c.IdleTick = 50_000 // 50 µs
	}
	if c.DevicePollTick == 0 {
		c.DevicePollTick = 20_000 // 20 µs
	}
	if c.MaxTime == 0 {
		c.MaxTime = 600_000_000_000 // 10 virtual minutes
	}
	return c
}

// Kernel owns the simulated machine and all kernel state.
type Kernel struct {
	Eng      *sim.Engine
	M        *machine.Machine
	Pmaps    *pmap.System
	VM       *vm.System
	Strategy core.Strategy
	// Shoot is the Mach shootdown instance when it is the strategy
	// (nil under baseline strategies).
	Shoot *core.Shootdown
	// Oracle is the consistency checker when Config.Oracle is set.
	Oracle *oracle.Oracle
	Trace  *xpr.Buffer

	cfg Config

	schedLock machine.SpinLock
	runq      []*Thread
	current   []*Thread   // per CPU
	idleProcs []*sim.Proc // per CPU
	live      int         // live (not exited) threads
	stopping  bool
	started   bool
	finished  bool
	taskSeq   int
	lastSnap  *snap.Snapshot // most recent Snapshot(), for black boxes
}

// New builds a kernel over a fresh machine.
func New(cfg Config) (*Kernel, error) {
	cfg = cfg.withDefaults()
	if cfg.Flight != nil {
		// New kernel, new providers; the recorder's trip/dump sequence
		// persists across a session's sequential kernels.
		cfg.Flight.BeginRun()
		if cfg.Tracer == nil {
			cfg.Tracer = cfg.Flight.Ring()
		} else {
			cfg.Flight.AttachRing(cfg.Tracer)
		}
	}
	engOpts := []sim.Option{sim.WithMaxTime(cfg.MaxTime)}
	if cfg.ChaosSeed != 0 {
		engOpts = append(engOpts, sim.WithChaos(cfg.ChaosSeed))
	}
	if cfg.Tracer != nil {
		engOpts = append(engOpts, sim.WithTracer(cfg.Tracer))
		// Each kernel's engine restarts virtual time at zero; rebasing
		// keeps sequential runs from overlapping on a shared session trace.
		cfg.Tracer.Rebase("kernel")
	}
	eng := sim.New(engOpts...)
	if len(cfg.ForcedTies) > 0 {
		eng.SetForcedTies(cfg.ForcedTies)
	}
	m := machine.New(eng, cfg.Machine)
	if cfg.Tracer != nil {
		m.SetTracer(cfg.Tracer)
	}
	if cfg.Profiler != nil {
		// Like the tracer, a shared session profiler is rebased so
		// sequential kernels don't overlap in virtual time.
		cfg.Profiler.Rebase()
		cfg.Profiler.SetIRQLatency(int64(m.Costs().IRQLatency))
		m.SetProfiler(cfg.Profiler)
	}
	k := &Kernel{
		Eng:       eng,
		M:         m,
		cfg:       cfg,
		schedLock: machine.SpinLock{Name: "sched", MinIPL: machine.IPLHigh},
		current:   make([]*Thread, m.NumCPUs()),
		Trace:     xpr.New(cfg.TraceSize),
	}
	if cfg.TraceOff {
		k.Trace.Off()
	}
	if cfg.SampleResponders != nil {
		k.Trace.SampleCPUs = map[int]bool{}
		for _, c := range cfg.SampleResponders {
			k.Trace.SampleCPUs[c] = true
		}
	}
	var strat core.Strategy
	if cfg.StrategyFactory != nil {
		s, err := cfg.StrategyFactory(m)
		if err != nil {
			return nil, err
		}
		strat = s
	} else {
		sd := core.New(m, cfg.Shootdown)
		sd.Trace = k.Trace
		sd.Span = cfg.Tracer
		sd.Prof = cfg.Profiler
		k.Shoot = sd
		strat = sd
	}
	k.Strategy = strat
	psys, err := pmap.NewSystem(m, strat)
	if err != nil {
		return nil, err
	}
	k.Pmaps = psys
	if cfg.Oracle {
		o := oracle.New(m)
		o.Track(psys.Kernel.Table, psys.Kernel.ASID(), true)
		psys.TableHook = o.Track
		m.SetMMUObserver(o)
		k.Oracle = o
	}
	k.VM = vm.NewSystem(m, psys)
	m.SetHandler(machine.VecTimer, func(ex *machine.Exec, _ machine.Vector) {
		k.timerTick(ex)
	})
	if cfg.Flight != nil {
		k.registerFlight(cfg.Flight)
	}
	return k, nil
}

// oracleSnap is the oracle's black-box provider payload.
type oracleSnap struct {
	Stats      oracle.Stats       `json:"stats"`
	Violations []oracle.Violation `json:"violations,omitempty"`
}

// faultSnap is the fault injector's black-box provider payload: the spec
// that seeded the campaign plus every event fired so far — exactly the
// reproducer context the chaos shrinker consumes.
type faultSnap struct {
	Spec   string        `json:"spec"`
	Seed   int64         `json:"seed"`
	Stats  fault.Stats   `json:"stats"`
	Events []fault.Event `json:"events,omitempty"`
}

// registerFlight points the flight recorder's trip sources and state
// providers at this kernel. Providers are snapshotted in registration
// order at trip time, so the order here is part of the black-box format:
// engine, cpus, devices (machines with devices only), shootdown, sched,
// oracle, faults, dags, snapshots.
func (k *Kernel) registerFlight(fr *trace.Recorder) {
	if k.Shoot != nil {
		k.Shoot.Flight = fr
	}
	if k.Oracle != nil {
		k.Oracle.OnViolation = func(v oracle.Violation) {
			fr.Trip(int64(v.Time), "oracle", v.String())
		}
	}
	fr.Register("engine", func() any { return k.Eng.Snapshot() })
	fr.Register("cpus", func() any { return k.M.Snapshot() })
	if k.M.NumDevices() > 0 {
		fr.Register("devices", func() any {
			out := make([]machine.DevSnap, 0, k.M.NumDevices())
			for i := 0; i < k.M.NumDevices(); i++ {
				out = append(out, k.M.Device(i).Snapshot())
			}
			return out
		})
	}
	if k.Shoot != nil {
		fr.Register("shootdown", func() any { return k.Shoot.Snapshot() })
	}
	fr.Register("sched", func() any { return k.SchedSnapshot() })
	if k.Oracle != nil {
		fr.Register("oracle", func() any {
			return oracleSnap{Stats: k.Oracle.Stats(), Violations: k.Oracle.Violations()}
		})
	}
	if inj := k.M.Faults(); inj != nil {
		fr.Register("faults", func() any {
			cfg := inj.Config()
			return faultSnap{Spec: cfg.Spec(), Seed: cfg.Seed, Stats: inj.Stats(), Events: inj.Events()}
		})
	}
	if p := k.cfg.Profiler; p != nil {
		fr.Register("dags", func() any { return profile.ExportShootdowns(p) })
	}
	// The last full-state snapshot taken during the run, so a black box
	// carries a restore point: rebuild the world, replay to the snapshot's
	// step, and time-travel from just before the trip.
	fr.Register("snapshots", func() any {
		if k.lastSnap != nil {
			return k.lastSnap
		}
		return snap.Empty()
	})
}

// Snapshot captures the full deterministic state of the simulation at the
// current event boundary: engine scheduling state, machine (CPUs, TLBs,
// memory digest), pmaps, in-flight shootdown protocol state, scheduler,
// oracle shadow tables, and fault-injector stream positions — in that
// fixed order, mirroring the flight-recorder provider convention. Layers
// owned by absent subsystems (no shootdown under a baseline strategy, no
// oracle, no faults) are omitted rather than empty, so the digest also
// pins the configuration shape.
//
// Taking a snapshot is a pure read: it charges no virtual time, consumes
// no randomness, and so never perturbs the run. Call it only at an event
// boundary (before Run, between RunToStep calls, or after the run ends);
// the capture is retained for the flight recorder's "snapshots" provider.
func (k *Kernel) Snapshot() (*snap.Snapshot, error) {
	s := snap.New(k.Eng.StepCount(), int64(k.Eng.Now()), nil)
	add := func(name string, v any) error { return s.AddLayer(name, v) }
	if err := add("engine", k.Eng.Snapshot()); err != nil {
		return nil, err
	}
	if err := add("machine", k.M.Snapshot()); err != nil {
		return nil, err
	}
	if err := add("pmap", k.Pmaps.Snapshot()); err != nil {
		return nil, err
	}
	if k.Shoot != nil {
		if err := add("shootdown", k.Shoot.Snapshot()); err != nil {
			return nil, err
		}
	}
	if err := add("sched", k.SchedSnapshot()); err != nil {
		return nil, err
	}
	if k.Oracle != nil {
		if err := add("oracle", k.Oracle.Snapshot()); err != nil {
			return nil, err
		}
	}
	if inj := k.M.Faults(); inj != nil {
		if err := add("faults", inj.Snapshot()); err != nil {
			return nil, err
		}
	}
	// Caching the capture for LastSnapshot is bookkeeping about
	// observation, not simulated state: no replay decision reads it.
	//lint:allow hookpurity lastSnap caches the capture for LastSnapshot; no simulation path reads it
	k.lastSnap = s
	return s, nil
}

// LastSnapshot returns the most recent Snapshot() capture, or nil.
func (k *Kernel) LastSnapshot() *snap.Snapshot { return k.lastSnap }

// tickHook lets a consistency strategy piggyback on the clock interrupt
// (the timer-flush baseline flushes TLBs from it).
type tickHook interface {
	OnTick(ex *machine.Exec)
}

// timerTick marks the running thread for rescheduling once its quantum is
// used up. (The paper notes timer interrupts perturb runtimes by 8-10%.)
func (k *Kernel) timerTick(ex *machine.Exec) {
	ex.ChargeInstr()
	if h, ok := k.Strategy.(tickHook); ok {
		h.OnTick(ex)
	}
	if t := k.current[ex.CPUID()]; t != nil && ex.Now()-t.dispatched >= k.cfg.Quantum {
		t.needResched = true
	}
}

// Run starts the idle loops and timer and executes until every thread has
// exited (or the engine hits its virtual-time bound).
func (k *Kernel) Run() error {
	if k.started {
		panic("kernel: Run called twice")
	}
	k.Start()
	return k.Finish(k.Eng.Run())
}

// Start spawns the idle loops, lifecycle driver, and timer without running
// the engine. Idempotent, so Run and the step-bounded entry points compose.
// Callers that Start explicitly drive the engine through RunToStep /
// ContinueRun and must end the run with Finish.
func (k *Kernel) Start() {
	if k.started {
		return
	}
	k.started = true
	k.idleProcs = make([]*sim.Proc, k.M.NumCPUs())
	for cpu := 0; cpu < k.M.NumCPUs(); cpu++ {
		cpu := cpu
		k.idleProcs[cpu] = k.Eng.Spawn(fmt.Sprintf("idle%d", cpu), func(p *sim.Proc) {
			k.idleLoop(p, cpu)
		})
	}
	k.startLifecycle()
	for i := 0; i < k.M.NumDevices(); i++ {
		dev := k.M.Device(i)
		// The device's service engine: drain the invalidation queue when
		// the doorbell is rung, otherwise poll. It polls rather than
		// blocks so a run can end while a device sits idle.
		k.Eng.Spawn(fmt.Sprintf("devsvc%d", i), func(p *sim.Proc) {
			for !k.stopping {
				if !dev.ServiceOne(p) {
					p.Sleep(k.cfg.DevicePollTick)
				}
			}
		})
	}
	if k.cfg.TimerInterval > 0 {
		k.Eng.Spawn("clock", func(p *sim.Proc) {
			for !k.stopping {
				p.Sleep(k.cfg.TimerInterval)
				for cpu := 0; cpu < k.M.NumCPUs(); cpu++ {
					k.M.Post(cpu, machine.VecTimer)
				}
			}
		})
	}
}

// RunToStep executes until the engine has completed n events (pausing at
// the event boundary) or the run ends, whichever comes first. The paused
// simulation is exactly mid-run: resume with another RunToStep or
// ContinueRun. Snapshot between calls for a consistent capture.
func (k *Kernel) RunToStep(n uint64) error {
	k.Start()
	return k.Eng.RunUntilStep(n)
}

// ContinueRun resumes a paused run to completion and settles it (spans,
// profiler, flight trip, oracle verdict). The counterpart of RunToStep.
func (k *Kernel) ContinueRun() error {
	if !k.started {
		panic("kernel: ContinueRun before Start")
	}
	return k.Finish(k.Eng.Run())
}

// Finish settles a completed run: balances open trace spans, finalizes the
// profiler, trips the flight recorder on an abnormal end, and folds in the
// oracle's verdict. err is the engine's result. Calling Finish twice
// panics — it marks the definitive end of the run.
func (k *Kernel) Finish(err error) error {
	if k.finished {
		panic("kernel: Finish called twice")
	}
	k.finished = true
	k.closeOpenSpans()
	k.cfg.Profiler.FinishAt(int64(k.Eng.Now()))
	if err != nil && k.cfg.Flight != nil {
		reason := "error"
		switch {
		case errors.Is(err, sim.ErrDeadlock):
			reason = "deadlock"
		case strings.Contains(err.Error(), "virtual time limit"):
			reason = "timeout"
		}
		k.cfg.Flight.Trip(int64(k.Eng.Now()), reason, err.Error())
	}
	if err == nil {
		k.Oracle.Check()
		err = k.Oracle.Err()
	}
	return err
}

// closeOpenSpans balances the per-CPU trace timelines after the engine
// stops: Eng.Stop halts everything the instant the last thread exits, so
// idle loops (and, on a time-bounded run, dispatched threads) never emit
// their closing events. Chrome-trace consumers require balanced spans.
func (k *Kernel) closeOpenSpans() {
	tr := k.cfg.Tracer
	if tr == nil {
		return
	}
	now := int64(k.Eng.Now())
	for cpu := 0; cpu < k.M.NumCPUs(); cpu++ {
		if !k.M.CPU(cpu).Online() {
			continue // a failed CPU's spans were closed at fail time
		}
		if k.current[cpu] != nil {
			tr.End(now, cpu, trace.CatKernel, "thread-run")
		} else {
			tr.End(now, cpu, trace.CatKernel, "idle")
		}
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.Eng.Now() }

// AttachDevice points device dev's MMU at the task's address space and
// registers it as a shootdown participant; DMA through the device then
// translates via the task's page table. Panics on a bad device index —
// attaching is setup, not a runtime path.
func (k *Kernel) AttachDevice(dev int, t *Task) {
	k.Pmaps.AttachDevice(k.M.Device(dev), t.Map.Pmap)
}

// enqueue appends t to the run queue (caller must be an attached exec).
func (k *Kernel) enqueue(ex *machine.Exec, t *Thread) {
	prev := k.schedLock.Lock(ex)
	t.state = threadReady
	k.runq = append(k.runq, t)
	k.schedLock.Unlock(ex, prev)
}

// dequeue pops the next runnable thread, or nil.
func (k *Kernel) dequeue(ex *machine.Exec) *Thread {
	prev := k.schedLock.Lock(ex)
	var t *Thread
	if len(k.runq) > 0 {
		t = k.runq[0]
		copy(k.runq, k.runq[1:])
		k.runq = k.runq[:len(k.runq)-1]
	}
	k.schedLock.Unlock(ex, prev)
	return t
}

// idleLoop is one CPU's idle thread: it polls for work with interrupts
// enabled (so it responds to shootdown IPIs), drains queued consistency
// actions before dispatching (the idle-processor optimization's contract),
// and hands the CPU to the chosen thread.
func (k *Kernel) idleLoop(p *sim.Proc, cpu int) {
	tr := k.cfg.Tracer
	pr := k.cfg.Profiler
	for {
		ex := k.M.Attach(p, cpu)
		k.Strategy.GoIdle(ex)
		tr.Begin(int64(ex.Now()), cpu, trace.CatKernel, "idle", 0, 0)
		pr.SetBase(int64(ex.Now()), cpu, profile.PhaseIdle)
		var next *Thread
		for !k.stopping {
			if next = k.dequeue(ex); next != nil {
				break
			}
			ex.Advance(k.cfg.IdleTick)
		}
		if next == nil { // stopping
			tr.End(int64(ex.Now()), cpu, trace.CatKernel, "idle")
			ex.Detach()
			return
		}
		k.Strategy.GoActive(ex)
		tr.End(int64(ex.Now()), cpu, trace.CatKernel, "idle")
		pr.SetBase(int64(ex.Now()), cpu, profile.PhaseRun)
		ex.ChargeTime(k.M.Costs().ContextSwitch)
		// The thread may still be releasing its previous CPU (its proc is
		// sleeping through the deactivation flush, not yet parked). Wait
		// until it is parked before touching its scheduling state — the
		// release path still reads it — and before waking it, or the
		// wake-up would be lost.
		for next.proc.State() != sim.StateBlocked {
			ex.Advance(10_000)
		}
		next.task.Map.Pmap.Activate(ex, cpu)
		next.cpu = cpu
		next.state = threadRunning
		next.dispatched = ex.Now()
		next.needResched = false
		tr.Begin(int64(ex.Now()), cpu, trace.CatKernel, "thread-run", int64(next.task.id), 0)
		k.current[cpu] = next
		ex.Detach()
		k.Eng.Wake(next.proc)
		p.SetWaiting(fmt.Sprintf("idle loop: waiting for thread %q to release cpu%d", next.name, cpu), next.proc)
		p.Block() // until the thread returns the CPU
	}
}

// releaseCPU is called on the thread's own proc to give the CPU back to
// the idle loop. The thread's exec must still be attached. The CPU number
// comes from the exec, not t.cpu: once the thread is on a run queue a
// dispatcher may already be re-targeting t.cpu.
func (t *Thread) releaseCPU() {
	k := t.k
	cpu := t.ex.CPUID()
	t.task.Map.Pmap.Deactivate(t.ex, cpu)
	k.current[cpu] = nil
	k.cfg.Tracer.End(int64(t.ex.Now()), cpu, trace.CatKernel, "thread-run")
	t.ex.Detach()
	t.ex = nil
	k.wakeIdle(cpu)
}

// wakeIdle resumes a CPU's idle proc after a thread gives the CPU back.
func (k *Kernel) wakeIdle(cpu int) {
	if !k.Eng.Wake(k.idleProcs[cpu]) {
		panic(fmt.Sprintf("kernel: idle proc for cpu %d not blocked (state %v)",
			cpu, k.idleProcs[cpu].State()))
	}
}

// CPUSchedSnap is one CPU's scheduler state in wire form.
type CPUSchedSnap struct {
	CPU int `json:"cpu"`
	// Current is the dispatched thread ("" = idle).
	Current string `json:"current,omitempty"`
	// ThreadState is the dispatched thread's lifecycle state.
	ThreadState string `json:"thread_state,omitempty"`
	// DispatchedNS is when the dispatched thread got the CPU.
	DispatchedNS int64 `json:"dispatched_ns,omitempty"`
	// NeedResched marks the dispatched thread for preemption.
	NeedResched bool `json:"need_resched,omitempty"`
	// IdleProc is the idle proc's engine state.
	IdleProc string `json:"idle_proc"`
}

// SchedSnap is the scheduler's state in wire form, for the flight
// recorder's black boxes (the structured sibling of DebugState) and for
// whole-simulation snapshots.
type SchedSnap struct {
	CPUs     []CPUSchedSnap `json:"cpus"`
	Runq     []string       `json:"runq,omitempty"`
	Live     int            `json:"live"`
	TaskSeq  int            `json:"task_seq,omitempty"`
	Stopping bool           `json:"stopping,omitempty"`
}

// SchedSnapshot captures per-CPU dispatch state and the run queue for
// post-mortems. Output is deterministic: CPUs in id order, the run queue
// in queue order.
func (k *Kernel) SchedSnapshot() SchedSnap {
	snap := SchedSnap{Live: k.live, TaskSeq: k.taskSeq, Stopping: k.stopping}
	for cpu := range k.current {
		cs := CPUSchedSnap{CPU: cpu}
		if t := k.current[cpu]; t != nil {
			cs.Current = t.name
			cs.ThreadState = t.state.String()
			cs.DispatchedNS = int64(t.dispatched)
			cs.NeedResched = t.needResched
		}
		if k.idleProcs != nil && k.idleProcs[cpu] != nil {
			cs.IdleProc = k.idleProcs[cpu].State().String()
		}
		snap.CPUs = append(snap.CPUs, cs)
	}
	for _, t := range k.runq {
		snap.Runq = append(snap.Runq, t.name)
	}
	return snap
}

// DebugState dumps scheduler state for diagnosing stuck simulations.
func (k *Kernel) DebugState() string {
	s := ""
	for cpu := range k.current {
		name := "<none>"
		if t := k.current[cpu]; t != nil {
			name = fmt.Sprintf("%s(state=%d)", t.name, t.state)
		}
		s += fmt.Sprintf("cpu%d: cur=%s idleProc=%v\n", cpu, name, k.idleProcs[cpu].State())
	}
	s += fmt.Sprintf("runq=%d:", len(k.runq))
	for _, t := range k.runq {
		s += " " + t.name
	}
	return s + "\n"
}

// threadExited accounts for a finished thread and stops the simulation
// when the last one is gone.
func (k *Kernel) threadExited(t *Thread) {
	k.live--
	if k.live == 0 {
		k.stopping = true
		k.Eng.Stop()
	}
}
