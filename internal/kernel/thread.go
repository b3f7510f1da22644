package kernel

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"shootdown/internal/machine"
	"shootdown/internal/pmap"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/vm"
)

// Task is a Mach task: an address space plus bookkeeping. Threads within a
// task share its memory completely and run in parallel on multiple CPUs.
type Task struct {
	k    *Kernel
	Map  *vm.Map
	name string
	id   int
}

// NewTask creates a task with a fresh user address space.
func (k *Kernel) NewTask(name string) (*Task, error) {
	m, err := k.VM.NewUserMap()
	if err != nil {
		return nil, err
	}
	k.taskSeq++
	return &Task{k: k, Map: m, name: name, id: k.taskSeq}, nil
}

// KernelTask returns a task façade over the kernel address space; threads
// spawned on it model in-kernel activity (their vm operations hit the
// kernel pmap and so cause machine-wide shootdowns).
func (k *Kernel) KernelTask() *Task {
	return &Task{k: k, Map: k.VM.Kernel, name: "kernel"}
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// Kernel returns the owning kernel.
func (t *Task) Kernel() *Kernel { return t.k }

type threadState int

const (
	threadReady threadState = iota
	threadRunning
	threadBlocked
	threadDone
)

func (s threadState) String() string {
	switch s {
	case threadReady:
		return "ready"
	case threadRunning:
		return "running"
	case threadBlocked:
		return "blocked"
	case threadDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Thread is one flow of control within a task. The body function runs on a
// sim proc; all interaction with simulated hardware goes through the
// thread's methods so virtual time is charged and faults are serviced.
type Thread struct {
	k    *Kernel
	task *Task
	name string
	proc *sim.Proc
	body func(*Thread)

	ex          *machine.Exec
	cpu         int
	state       threadState
	dispatched  sim.Time
	needResched bool

	joiners []*Thread
	// Err records the error that terminated the body, if the workload
	// stores one via Fail.
	Err error

	// waitReason and waitOn, when set before a blocking call, annotate the
	// proc's entry in the engine's wait graph; yieldTo consumes them.
	waitReason fmt.Stringer
	waitOn     []*sim.Proc
	// note backs the join and mutex annotations.
	note waitNote
}

// waitNote is a wait annotation naming another thread, kept in a record
// its owner reuses so that blocking allocates nothing: the engine renders
// it only when a snapshot or the wait graph reads it.
type waitNote struct {
	format string       // the reason, with one %q verb for the thread's name
	thread *Thread      // the thread waited on
	on     [1]*sim.Proc // its proc, the wait-graph edge
}

// String renders the reason as fmt.Sprintf(w.format, w.thread.name)
// would, in one allocation.
func (w *waitNote) String() string {
	before, after, _ := strings.Cut(w.format, "%q")
	b := append(make([]byte, 0, 96), before...)
	b = strconv.AppendQuote(b, w.thread.name)
	return string(append(b, after...))
}

// waitFor annotates the thread's next block as waiting on th.
func (t *Thread) waitFor(format string, th *Thread) {
	t.note = waitNote{format: format, thread: th, on: [1]*sim.Proc{th.proc}}
	t.waitReason, t.waitOn = &t.note, t.note.on[:]
}

// Spawn creates a thread in the task and makes it runnable. It may be
// called before Kernel.Run or from a running thread.
func (t *Task) Spawn(name string, body func(*Thread)) *Thread {
	k := t.k
	th := &Thread{k: k, task: t, name: name, body: body, state: threadReady}
	k.live++
	th.proc = k.Eng.Spawn(fmt.Sprintf("thread:%s", name), func(p *sim.Proc) {
		p.SetWaiting(sim.Reason("spawned: waiting for first dispatch"))
		p.Block() // wait for first dispatch
		th.ex = k.M.Attach(p, th.cpu)
		th.body(th)
		th.exit()
	})
	// The proc was spawned runnable; park it until the scheduler picks it.
	k.runq = append(k.runq, th)
	return th
}

// exit tears the thread down and hands the CPU back.
func (t *Thread) exit() {
	t.state = threadDone
	for _, j := range t.joiners {
		j.state = threadReady
		t.k.runq = append(t.k.runq, j) // scheduler lock not needed: engine-serialized and we hold the CPU
	}
	t.joiners = nil
	t.k.threadExited(t)
	t.releaseCPU()
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Task returns the owning task.
func (t *Thread) Task() *Task { return t.task }

// Kernel returns the owning kernel.
func (t *Thread) Kernel() *Kernel { return t.k }

// CPU returns the processor the thread is currently running on.
func (t *Thread) CPU() int { return t.cpu }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.ex.Now() }

// Exec exposes the raw execution context (for instrumentation/tests).
func (t *Thread) Exec() *machine.Exec { return t.ex }

// Done reports whether the thread has exited.
func (t *Thread) Done() bool { return t.state == threadDone }

// Fail records a terminal error on the thread.
func (t *Thread) Fail(err error) { t.Err = err }

// yieldTo parks this thread in newState and hands the CPU to the idle
// loop; it returns when the scheduler dispatches the thread again.
func (t *Thread) yieldTo(newState threadState) {
	k := t.k
	reason, deps := t.waitReason, t.waitOn
	t.waitReason, t.waitOn = nil, nil
	if reason == nil {
		if newState == threadReady {
			reason = sim.Reason("ready: waiting for redispatch")
		} else {
			reason = sim.Reason("blocked: waiting for wakeup")
		}
	}
	if newState == threadReady {
		k.enqueue(t.ex, t)
	} else {
		t.state = newState
	}
	t.releaseCPU()
	t.proc.SetWaiting(reason, deps...)
	t.proc.Block()
	t.ex = k.M.Attach(t.proc, t.cpu)
}

// Yield voluntarily gives up the CPU.
func (t *Thread) Yield() { t.yieldTo(threadReady) }

// blockSelf parks the thread until MakeReady.
func (t *Thread) blockSelf() { t.yieldTo(threadBlocked) }

// MakeReady moves a blocked thread back onto the run queue. It must be
// called from another running thread.
func (from *Thread) MakeReady(t *Thread) {
	if t.state != threadBlocked {
		panic(fmt.Sprintf("kernel: MakeReady of %s in state %d", t.name, t.state))
	}
	from.k.enqueue(from.ex, t)
}

// Join blocks until other exits.
func (t *Thread) Join(other *Thread) {
	if other.state == threadDone {
		return
	}
	other.joiners = append(other.joiners, t)
	t.waitFor("join: waiting for thread %q to exit", other)
	t.blockSelf()
}

// maybeResched yields if the timer marked the quantum expired.
func (t *Thread) maybeResched() {
	if t.needResched {
		t.needResched = false
		t.yieldTo(threadReady)
	}
}

// reschedPending is a thread as the condition that the timer has marked
// its quantum expired: Compute's slices stop for it.
type reschedPending Thread

func (r *reschedPending) Holds() bool { return r.needResched }

// Compute burns d of virtual CPU time, checking for preemption at ~100 µs
// boundaries. Only the timer handler, run at a slice's delivery points,
// marks the quantum expired, so the slices between preemptions run as
// one loop on the engine's stack. A preemption may move the thread to
// another CPU, so each run of slices starts from the current t.ex.
func (t *Thread) Compute(d sim.Time) {
	const chunk = 100_000
	for d > 0 {
		d = t.ex.AdvanceChunks(d, chunk, (*reschedPending)(t))
		t.maybeResched()
	}
}

// KernelSection models in-kernel work performed with device interrupts
// masked (driver critical sections, interrupt service). On stock hardware
// this also masks shootdown interrupts — the cause of the extra latency
// and skew of kernel-pmap shootdowns the paper observes; the
// HighPriorityIPI hardware option removes the effect.
func (t *Thread) KernelSection(d sim.Time) {
	prev := t.ex.RaiseIPL(machine.IPLDevice)
	t.ex.Advance(d)
	t.ex.RestoreIPL(prev)
	t.maybeResched()
}

// ErrUnrecoverableFault is wrapped by memory accesses that the VM system
// cannot satisfy (the §5.1 tester's threads die on it).
var ErrUnrecoverableFault = errors.New("kernel: unrecoverable fault")

// mapFor routes an address to the kernel or task address space.
func (t *Thread) mapFor(va ptable.VAddr) *vm.Map {
	if va >= machine.KernelBase {
		return t.k.VM.Kernel
	}
	return t.task.Map
}

// Read loads a word, servicing page faults through the VM system.
func (t *Thread) Read(va ptable.VAddr) (uint32, error) {
	for try := 0; try < 8; try++ {
		v, fault := t.ex.Read(va)
		if fault == nil {
			t.maybeResched()
			return v, nil
		}
		if err := t.mapFor(va).Fault(t.ex, fault.VA, fault.Write); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrUnrecoverableFault, err)
		}
	}
	return 0, fmt.Errorf("%w: fault loop at %#x", ErrUnrecoverableFault, va)
}

// Write stores a word, servicing page faults through the VM system.
func (t *Thread) Write(va ptable.VAddr, v uint32) error {
	for try := 0; try < 8; try++ {
		fault := t.ex.Write(va, v)
		if fault == nil {
			t.maybeResched()
			return nil
		}
		if err := t.mapFor(va).Fault(t.ex, fault.VA, fault.Write); err != nil {
			return fmt.Errorf("%w: %v", ErrUnrecoverableFault, err)
		}
	}
	return fmt.Errorf("%w: fault loop at %#x", ErrUnrecoverableFault, va)
}

// VMAllocate allocates zero-fill memory in the thread's address space
// (or the kernel map for kernel tasks).
func (t *Thread) VMAllocate(size uint32) (ptable.VAddr, error) {
	return t.task.Map.Allocate(t.ex, 0, size, true)
}

// VMAllocateAt allocates at a fixed address.
func (t *Thread) VMAllocateAt(at ptable.VAddr, size uint32) (ptable.VAddr, error) {
	return t.task.Map.Allocate(t.ex, at, size, false)
}

// VMDeallocate unmaps a range.
func (t *Thread) VMDeallocate(start, end ptable.VAddr) error {
	return t.task.Map.Deallocate(t.ex, start, end)
}

// VMProtect changes a range's protection.
func (t *Thread) VMProtect(start, end ptable.VAddr, prot pmap.Prot) error {
	return t.task.Map.Protect(t.ex, start, end, prot)
}

// VMSetInheritance sets fork behaviour for a range.
func (t *Thread) VMSetInheritance(start, end ptable.VAddr, inh vm.Inheritance) error {
	return t.task.Map.SetInheritance(t.ex, start, end, inh)
}

// KernelAllocate carves wired kernel memory out of the kernel map (buffer
// cache, thread stacks, IPC buffers). Deallocating it later is what causes
// kernel-pmap shootdowns.
func (t *Thread) KernelAllocate(size uint32) (ptable.VAddr, error) {
	return t.k.VM.Kernel.Allocate(t.ex, 0, size, true)
}

// KernelDeallocate releases kernel memory allocated with KernelAllocate.
func (t *Thread) KernelDeallocate(start, end ptable.VAddr) error {
	return t.k.VM.Kernel.Deallocate(t.ex, start, end)
}

// PageOut runs one pageout-daemon pass over the thread's address space,
// evicting up to want unreferenced pages to the backing store. Eviction
// shoots down the victims' hardware mappings; the paper notes the disk
// write dwarfs that cost (§5).
func (t *Thread) PageOut(want int) int {
	return t.task.Map.PageOut(t.ex, want)
}

// DestroyTask tears down another task's address space (Unix exit). The
// task must have no live threads.
func (t *Thread) DestroyTask(task *Task) {
	task.Map.Destroy(t.ex)
}

// ForkTask forks the thread's address space Unix-style (copy-on-write per
// inheritance) into a new task; spawn threads on it to run the child.
func (t *Thread) ForkTask(name string) (*Task, error) {
	childMap, err := t.task.Map.Fork(t.ex)
	if err != nil {
		return nil, err
	}
	k := t.k
	k.taskSeq++
	return &Task{k: k, Map: childMap, name: name, id: k.taskSeq}, nil
}

// Semaphore is a counting semaphore for workload synchronization.
type Semaphore struct {
	count   int
	waiters []*Thread
}

// P decrements the semaphore, blocking while it is zero (Mesa-style:
// woken waiters recheck).
func (t *Thread) P(s *Semaphore) {
	t.ex.ChargeInstr()
	for s.count == 0 {
		s.waiters = append(s.waiters, t)
		t.waitReason = sim.Reason("semaphore: waiting for V")
		t.blockSelf()
	}
	s.count--
}

// V increments the semaphore and readies one waiter.
func (t *Thread) V(s *Semaphore) {
	t.ex.ChargeInstr()
	s.count++
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		copy(s.waiters, s.waiters[1:])
		s.waiters = s.waiters[:len(s.waiters)-1]
		t.MakeReady(w)
	}
}

// Mutex is a blocking kernel mutex for workload synchronization.
type Mutex struct {
	holder  *Thread
	waiters []*Thread
}

// Lock acquires the mutex, blocking the thread if needed.
func (t *Thread) Lock(mu *Mutex) {
	t.ex.ChargeInstr()
	for mu.holder != nil {
		mu.waiters = append(mu.waiters, t)
		t.waitFor("mutex: waiting for thread %q to unlock", mu.holder)
		t.blockSelf()
	}
	mu.holder = t
}

// Unlock releases the mutex and readies one waiter. In a closed world (a
// deferred Unlock run while Kernel.Close unwinds the thread) it does
// nothing.
func (t *Thread) Unlock(mu *Mutex) {
	if t.k.Eng.Closed() {
		return
	}
	if mu.holder != t {
		panic("kernel: unlock of mutex not held by caller")
	}
	t.ex.ChargeInstr()
	mu.holder = nil
	if len(mu.waiters) > 0 {
		w := mu.waiters[0]
		copy(mu.waiters, mu.waiters[1:])
		mu.waiters = mu.waiters[:len(mu.waiters)-1]
		t.MakeReady(w)
	}
}
