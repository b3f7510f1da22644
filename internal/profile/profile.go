// Package profile is a deterministic virtual-time profiler for the
// simulated multiprocessor (DESIGN.md §12). It answers the question the
// paper's evaluation is ultimately about — *where* a shootdown
// microsecond goes — with three instruments:
//
//   - A phase-attribution engine: every tick of simulated time on every
//     CPU is charged to a stack of phases (running / IPL-masked /
//     spinning-on-lock / spinning-at-barrier / bus-stalled / idle /
//     halted), emitted as folded stacks (flamegraph input) and per-CPU
//     utilization timelines.
//   - A causal reconstructor (shootdown.go): each shootdown's events are
//     linked into a DAG — initiator begin → IPI posts → per-responder
//     interrupt entry → barrier arrival → flush — from which the critical
//     path and the "which responder was last and why" attribution fall
//     out.
//   - Per-lock and per-bus-site contention profiles (hold/wait
//     histograms on stats.Histogram).
//
// The profiler is a subscriber of the observation stream (trace.Sink): it
// rebuilds all three from the typed events every layer emits, charges no
// virtual time and consumes no simulation randomness, so profiled runs
// are bit-identical to unprofiled ones; and because every timestamp is
// virtual, two runs with the same seed produce byte-identical profiles.
// Each event costs O(1) with no hashing in the common case: a CPU charges
// the cached cell of its current stack (a trie of phase stacks) and its
// cached timeline bucket, and finds its last lock's and bus site's
// contention profile in a one-entry cache.
package profile

import (
	"fmt"
	"sort"

	"shootdown/internal/stats"
	"shootdown/internal/trace"
)

// Phase is one level of the per-CPU attribution stack. The bottom of the
// stack is a base phase (idle / run / halted); the overlay phases nest
// above it as the CPU masks interrupts, spins, or stalls on the bus.
type Phase uint8

// The phase taxonomy (DESIGN.md §12).
const (
	// PhaseIdle: the CPU is in its idle loop, polling for work.
	PhaseIdle Phase = iota
	// PhaseRun: a thread (or the dispatcher) is executing.
	PhaseRun
	// PhaseHalted: the CPU fail-stopped and is offline.
	PhaseHalted
	// PhaseMasked: the CPU's IPL masks the shootdown IPI — a device or
	// timer handler on stock hardware, any IPLHigh section, or interrupt
	// dispatch itself. Time a pending shootdown spends waiting on such an
	// interval is the paper's "masked interval" responder cost.
	PhaseMasked
	// PhaseSpinLock: spinning to acquire a contended spin lock.
	PhaseSpinLock
	// PhaseSpinBarrier: spinning at a shootdown barrier — the initiator
	// awaiting responder acknowledgments, or a responder stalled until
	// the initiator's pmap update completes.
	PhaseSpinBarrier
	// PhaseBusStall: stalled issuing transactions on the shared bus
	// (occupancy plus queueing behind other processors' traffic).
	PhaseBusStall
	// NumPhases is the number of distinct phases.
	NumPhases = int(PhaseBusStall) + 1
)

var phaseNames = [NumPhases]string{
	"idle", "run", "halted", "ipl-masked", "spin-lock", "spin-barrier", "bus-stall",
}

func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// PhaseTotals accumulates nanoseconds by leaf phase.
type PhaseTotals [NumPhases]int64

// Of returns the accumulated nanoseconds for one phase.
func (t PhaseTotals) Of(p Phase) int64 { return t[p] }

// DefaultBucketNS is the utilization-timeline bucket width (1 ms of
// virtual time).
const DefaultBucketNS = 1_000_000

// maxDepth bounds the folded stacks; the instrumented code nests at most
// base → masked → spin → bus (+ nested interrupt entries). Deeper levels
// are charged to the stack's first maxDepth phases.
const maxDepth = 15

// cell is one folded stack: the nanoseconds charged to it and the cells
// one phase deeper. A CPU's cells form a trie rooted at cpuState.root.
type cell struct {
	ns    int64
	child [NumPhases]*cell
}

// cpuState is one CPU's attribution state. Every event is charged in
// O(1): to the cached cell of the current stack and the cached timeline
// bucket, with no map access unless a bucket boundary is crossed.
type cpuState struct {
	active bool
	last   int64 // rebased timestamp accounting is complete up to
	stack  []Phase
	root   cell        // folded accounting: the trie of stacks seen
	cur    *cell       // the cell of stack (its first maxDepth levels)
	cum    PhaseTotals // leaf-phase totals (snapshotted by the DAG)
	// buckets is the utilization timeline: bucket index → leaf-phase ns.
	// bt is the bucket covering rebased times [blo, bhi).
	buckets  map[int64]*PhaseTotals
	bt       *PhaseTotals
	blo, bhi int64
	// bus is the call site of the bus stall in progress, or the last one
	// (named busName); lock is the last lock profiled on this CPU.
	bus      *ContentionProfile
	busName  string
	lock     *ContentionProfile
	lockName string
}

// ContentionProfile is one lock's (or bus call site's) contention record.
type ContentionProfile struct {
	// Wait is the distribution of acquisition waits (ns) — for bus sites,
	// of per-transaction queueing delays behind other CPUs' traffic.
	Wait *stats.Histogram
	// Hold is the distribution of hold times (ns); locks only.
	Hold *stats.Histogram
	// Contended counts acquisitions that waited (queued transactions for
	// bus sites); Txns counts bus transactions issued at the site.
	Contended uint64
	Txns      uint64
}

// contention returns (creating if needed) the named lock's or bus site's
// profile in m.
func contention(m map[string]*ContentionProfile, name string) *ContentionProfile {
	c := m[name]
	if c == nil {
		c = &ContentionProfile{
			Wait: stats.NewHistogram(100, 1e9, 5),
			Hold: stats.NewHistogram(100, 1e9, 5),
		}
		m[name] = c
	}
	return c
}

// Profiler is the virtual-time profiler. Subscribe it to a kernel's
// observation stream with trace.Stream (experiments plumb it via
// Instrument). It costs no virtual time, and its exported methods are
// nil-safe.
type Profiler struct {
	// BucketNS is the utilization-timeline bucket width; set it before
	// the first event (0 = DefaultBucketNS).
	BucketNS int64

	epoch    int64 // added to raw engine timestamps (sequential kernels rebase)
	maxTS    int64 // latest rebased timestamp observed
	irqLatNS int64

	cpus  []*cpuState
	locks map[string]*ContentionProfile
	bus   map[string]*ContentionProfile

	// causal reconstructor state (shootdown.go)
	records   []*ShootRecord
	open      map[int]*ShootRecord  // initiator CPU → record in Sync
	expecting map[int][]*RespRecord // responder CPU → awaited records
}

// New creates an empty profiler.
func New() *Profiler {
	return &Profiler{
		locks:     map[string]*ContentionProfile{},
		bus:       map[string]*ContentionProfile{},
		open:      map[int]*ShootRecord{},
		expecting: map[int][]*RespRecord{},
	}
}

// streamKinds are the stream events the profiler consumes.
var streamKinds = trace.Kinds(trace.KindIdle, trace.KindDispatch, trace.KindCPUFail,
	trace.KindCPUOnline, trace.KindDevQuarantine, trace.KindIRQIPI, trace.KindBusWait,
	trace.KindSyncBegin, trace.KindSyncEnd, trace.KindWaitBegin, trace.KindStallBegin,
	trace.KindDevWaitBegin, trace.KindSpinEnd, trace.KindRespondEnd, trace.KindRun,
	trace.KindRunEnd, trace.KindExpect, trace.KindIPIPost, trace.KindMask, trace.KindLockSpin,
	trace.KindLockAcquire, trace.KindLockRelease, trace.KindBusBegin, trace.KindBusEnd)

// Kinds implements trace.Sink. A nil profiler consumes nothing, so the
// stream never subscribes it.
func (p *Profiler) Kinds() trace.KindSet {
	if p == nil {
		return 0
	}
	return streamKinds
}

// Observe implements trace.Sink: it folds one stream event into the phase
// stacks, the shootdown DAGs, or the contention profiles.
func (p *Profiler) Observe(k trace.Kind, ts int64, cpu int, name string, a1, a2 int64) {
	switch k {
	case trace.KindRun:
		p.rebase()
		p.irqLatNS = a1
	case trace.KindRunEnd:
		p.finishAt(ts)
	case trace.KindIdle:
		p.setBase(ts, cpu, PhaseIdle)
	case trace.KindDispatch:
		p.setBase(ts, cpu, PhaseRun)
	case trace.KindCPUFail, trace.KindDevQuarantine:
		// Whatever the processor was doing ends; its time is halted until
		// it comes back online.
		p.reset(ts, cpu, PhaseHalted)
	case trace.KindCPUOnline:
		p.reset(ts, cpu, PhaseIdle)
	case trace.KindMask:
		if a1 >= a2 {
			p.Push(ts, cpu, PhaseMasked)
		} else {
			p.Pop(ts, cpu, PhaseMasked)
		}
	case trace.KindLockSpin:
		p.Push(ts, cpu, PhaseSpinLock)
	case trace.KindLockAcquire:
		c := p.lock(cpu, name)
		c.Wait.Observe(float64(a1))
		if a1 > 0 {
			c.Contended++
			p.Pop(ts, cpu, PhaseSpinLock)
		}
	case trace.KindLockRelease:
		p.lock(cpu, name).Hold.Observe(float64(a1))
	case trace.KindBusBegin:
		p.Push(ts, cpu, PhaseBusStall)
		cs := p.cpus[cpu]
		if cs.bus == nil || cs.busName != name {
			cs.bus, cs.busName = contention(p.bus, name), name
		}
		cs.bus.Txns += uint64(a1)
	case trace.KindBusWait:
		c := p.cpus[cpu].bus
		c.Wait.Observe(float64(a1))
		c.Contended++
	case trace.KindBusEnd:
		p.Pop(ts, cpu, PhaseBusStall)
	case trace.KindSyncBegin:
		p.shootBegin(ts, cpu, a2 != 0, int(a1))
	case trace.KindExpect:
		p.shootExpect(ts, cpu, int(a1))
	case trace.KindIPIPost:
		p.ipiPosted(ts, cpu, a1 >= a2)
	case trace.KindWaitBegin:
		p.shootWait(ts, cpu)
		p.Push(ts, cpu, PhaseSpinBarrier)
	case trace.KindDevWaitBegin:
		p.Push(ts, cpu, PhaseSpinBarrier)
	case trace.KindSpinEnd:
		p.Pop(ts, cpu, PhaseSpinBarrier)
	case trace.KindSyncEnd:
		p.shootEnd(ts, cpu)
	case trace.KindIRQIPI:
		p.irqEnter(ts, cpu)
	case trace.KindStallBegin:
		p.respondAck(ts, cpu)
		p.Push(ts, cpu, PhaseSpinBarrier)
	case trace.KindRespondEnd:
		p.respondDone(ts, cpu)
	}
}

// IRQLatencyNS returns the machine's interrupt latency, which the causal
// reconstructor uses to split a responder's post→deliver wait into
// hardware latency and masked time.
func (p *Profiler) IRQLatencyNS() int64 {
	if p == nil {
		return 0
	}
	return p.irqLatNS
}

// rebase starts a new kernel run on a shared session profile: each
// kernel's engine restarts virtual time at zero, so the profiler shifts
// its epoch to the latest time seen and resets per-CPU stacks. Phase and
// contention accounting accumulates across rebases; shootdowns left
// incomplete by the previous kernel are finalized as-is.
func (p *Profiler) rebase() {
	for _, cs := range p.cpus {
		if cs != nil && cs.active {
			p.charge(cs, p.maxTS)
			cs.active = false
		}
	}
	p.open = map[int]*ShootRecord{}
	p.expecting = map[int][]*RespRecord{}
	p.epoch = p.maxTS
}

// finishAt completes phase accounting up to the given (raw) timestamp
// when a run ends, so trailing time is charged.
func (p *Profiler) finishAt(ts int64) {
	rts := p.rebased(ts)
	for _, cs := range p.cpus {
		if cs != nil && cs.active {
			p.charge(cs, rts)
		}
	}
}

func (p *Profiler) bucketNS() int64 {
	if p.BucketNS > 0 {
		return p.BucketNS
	}
	return DefaultBucketNS
}

func (p *Profiler) rebased(ts int64) int64 {
	rts := ts + p.epoch
	if rts > p.maxTS {
		p.maxTS = rts
	}
	return rts
}

// state returns (creating if needed) the state for one CPU, active or not.
func (p *Profiler) state(i int) *cpuState {
	for len(p.cpus) <= i {
		p.cpus = append(p.cpus, nil)
	}
	cs := p.cpus[i]
	if cs == nil {
		cs = &cpuState{buckets: map[int64]*PhaseTotals{}}
		p.cpus[i] = cs
	}
	return cs
}

// lock returns the named lock's profile through the CPU's one-entry cache:
// a CPU usually releases the lock it last acquired.
func (p *Profiler) lock(cpu int, name string) *ContentionProfile {
	cs := p.state(cpu)
	if cs.lock == nil || cs.lockName != name {
		cs.lock, cs.lockName = contention(p.locks, name), name
	}
	return cs.lock
}

// cpu returns (activating if needed) the state for one CPU.
func (p *Profiler) cpu(i int) *cpuState {
	cs := p.state(i)
	if !cs.active {
		cs.active = true
		cs.last = p.epoch
		cs.stack = append(cs.stack[:0], PhaseIdle)
		cs.rekey()
	}
	return cs
}

// rekey points cur at the current stack's cell, walking (and growing)
// the trie through at most maxDepth levels.
func (cs *cpuState) rekey() {
	c := &cs.root
	for _, ph := range cs.stack[:min(len(cs.stack), maxDepth)] {
		if c.child[ph] == nil {
			c.child[ph] = &cell{}
		}
		c = c.child[ph]
	}
	cs.cur = c
}

// charge attributes the time since the CPU's last event to its current
// phase stack (folded cell, leaf totals, timeline buckets).
func (p *Profiler) charge(cs *cpuState, rts int64) {
	d := rts - cs.last
	if d <= 0 {
		return
	}
	cs.cur.ns += d
	leaf := cs.stack[len(cs.stack)-1]
	cs.cum[leaf] += d
	for t := cs.last; t < rts; {
		if t < cs.blo || t >= cs.bhi {
			p.enterBucket(cs, t)
		}
		end := min(rts, cs.bhi)
		cs.bt[leaf] += end - t
		t = end
	}
	cs.last = rts
}

// enterBucket makes the timeline bucket holding rebased time t the CPU's
// cached one.
func (p *Profiler) enterBucket(cs *cpuState, t int64) {
	bw := p.bucketNS()
	b := t / bw
	bt := cs.buckets[b]
	if bt == nil {
		bt = &PhaseTotals{}
		cs.buckets[b] = bt
	}
	cs.bt, cs.blo, cs.bhi = bt, b*bw, (b+1)*bw
}

// chargeCPU completes accounting for one CPU up to a rebased timestamp
// (used by the causal reconstructor before snapshotting leaf totals).
func (p *Profiler) chargeCPU(cpu int, rts int64) *cpuState {
	cs := p.cpu(cpu)
	p.charge(cs, rts)
	return cs
}

// setBase switches a CPU's base phase (idle ↔ run), keeping any overlay
// phases above it.
func (p *Profiler) setBase(ts int64, cpu int, base Phase) {
	cs := p.chargeCPU(cpu, p.rebased(ts))
	cs.stack[0] = base
	cs.rekey()
}

// Push enters an overlay phase on a CPU.
func (p *Profiler) Push(ts int64, cpu int, ph Phase) {
	if p == nil {
		return
	}
	cs := p.chargeCPU(cpu, p.rebased(ts))
	cs.stack = append(cs.stack, ph)
	cs.rekey()
}

// Pop leaves an overlay phase: the topmost occurrence of ph is removed
// (robust to interleaved pops from interrupt entry/exit). A pop with no
// matching push is ignored.
func (p *Profiler) Pop(ts int64, cpu int, ph Phase) {
	if p == nil {
		return
	}
	cs := p.chargeCPU(cpu, p.rebased(ts))
	for i := len(cs.stack) - 1; i > 0; i-- {
		if cs.stack[i] == ph {
			cs.stack = append(cs.stack[:i], cs.stack[i+1:]...)
			cs.rekey()
			return
		}
	}
}

// reset replaces a CPU's whole phase stack with base (a fail-stop or a
// return online).
func (p *Profiler) reset(ts int64, cpu int, base Phase) {
	cs := p.chargeCPU(cpu, p.rebased(ts))
	cs.stack = append(cs.stack[:0], base)
	cs.rekey()
}

// NumCPUs returns the number of CPUs the profiler has seen.
func (p *Profiler) NumCPUs() int {
	if p == nil {
		return 0
	}
	return len(p.cpus)
}

// Totals returns machine-wide leaf-phase nanoseconds.
func (p *Profiler) Totals() PhaseTotals {
	var out PhaseTotals
	if p == nil {
		return out
	}
	for _, cs := range p.cpus {
		if cs == nil {
			continue
		}
		for i := range out {
			out[i] += cs.cum[i]
		}
	}
	return out
}

// FoldedStacks returns the folded-stack cells ("cpuNN;base;...;leaf" →
// nanoseconds) sorted by stack string — the flamegraph input, and the
// byte-identical-per-seed artifact the determinism stage checks.
type FoldedCell struct {
	Stack string
	NS    int64
}

// Folded returns all folded cells in deterministic order.
func (p *Profiler) Folded() []FoldedCell {
	if p == nil {
		return nil
	}
	var out []FoldedCell
	for i, cs := range p.cpus {
		if cs != nil {
			out = cs.root.fold(fmt.Sprintf("cpu%02d", i), out)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Stack < out[b].Stack })
	return out
}

// fold appends the charged cells of c's subtree, c's own stack named
// stack, to out.
func (c *cell) fold(stack string, out []FoldedCell) []FoldedCell {
	if c.ns > 0 {
		out = append(out, FoldedCell{Stack: stack, NS: c.ns})
	}
	for ph, n := range c.child {
		if n != nil {
			out = n.fold(stack+";"+Phase(ph).String(), out)
		}
	}
	return out
}

// contentionNames returns the sorted lock (or bus-site) names of a contention
// map, for deterministic emission.
func contentionNames(m map[string]*ContentionProfile) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
