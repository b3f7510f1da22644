package machine

import (
	"fmt"
	"strings"
	"testing"

	"shootdown/internal/sim"
	"shootdown/internal/trace"
)

// The reference loops below are the wait loops as straight-line
// coroutine code, one Sleep per engine step, delivering interrupts
// wherever Advance and RestoreIPL do. The machine runs the same loops as
// Steppers; TestLoopsMatchReference holds them to these.

func refBusStall(ex *Exec, site string, n int) {
	if n <= 0 {
		return
	}
	m := ex.machine
	m.Tracer().Emit(trace.KindBusBegin, int64(ex.Now()), ex.cpu.id, site, int64(n), 0)
	for i := 0; i < n; i++ {
		now := ex.Now()
		w := m.Bus.Reserve(now, 1)
		if q := w - m.Bus.Occupancy(); q > 0 {
			m.Tracer().Emit(trace.KindBusWait, int64(now), ex.cpu.id, "bus-wait", int64(q), 0)
		}
		w += m.faults.BusJitter(ex.cpu.id)
		ex.advanceNoIRQ(w)
	}
	m.Tracer().Emit(trace.KindBusEnd, int64(ex.Now()), ex.cpu.id, "", 0, 0)
}

func refSpinWhile(ex *Exec, c Cond) {
	period := ex.machine.costs.SpinBusPeriod
	for i := 1; c.Holds(); i++ {
		ex.Advance(ex.machine.costs.SpinCheck)
		if period > 0 && i%period == 0 {
			refBusStall(ex, "spin-refetch", 1)
		}
	}
}

func refLock(l *SpinLock, ex *Exec) IPL {
	prev := ex.RaiseIPL(l.MinIPL)
	ex.charge(ex.machine.costs.LockAcquire)
	t0 := ex.Now()
	for spun := false; l.held && !l.breakIfOwnerDead(ex.machine); spun = true {
		if !spun {
			ex.machine.Tracer().Emit(trace.KindLockSpin, int64(ex.Now()), ex.CPUID(), l.Name, 0, 0)
		}
		ex.Advance(ex.machine.costs.SpinCheck)
	}
	l.take(ex, t0)
	return prev
}

func refPoll(ex *Exec, l *SpinLock, q IdleQueue, tick sim.Time) (IPL, bool) {
	for !q.Stopping() {
		prev := refLock(l, ex)
		if q.Ready() {
			return prev, true
		}
		l.Unlock(ex, prev)
		ex.Advance(tick)
	}
	return 0, false
}

func refAdvanceChunks(ex *Exec, d, chunk sim.Time, stop Cond) sim.Time {
	for d > 0 {
		slice := min(d, chunk)
		ex.Advance(slice)
		d -= slice
		if d > 0 && stop.Holds() {
			return d
		}
	}
	return 0
}

// loops is one implementation of the wait loops a scenario runs.
type loops struct {
	spinWhile     func(ex *Exec, c Cond)
	poll          func(ex *Exec, l *SpinLock, q IdleQueue, tick sim.Time) (IPL, bool)
	busStall      func(ex *Exec, site string, n int)
	advanceChunks func(ex *Exec, d, chunk sim.Time, stop Cond) sim.Time
}

var (
	machineLoops   = loops{(*Exec).SpinWhile, (*Exec).Poll, (*Exec).busStall, (*Exec).AdvanceChunks}
	referenceLoops = loops{refSpinWhile, refPoll, refBusStall, refAdvanceChunks}
)

// flagCond holds while its flag is set.
type flagCond struct{ set bool }

func (c *flagCond) Holds() bool { return c.set }

// countCond holds for its first n checks.
type countCond struct{ n int }

func (c *countCond) Holds() bool {
	c.n--
	return c.n >= 0
}

// markCond is a chunked advance's stop condition, set by a timer
// handler as the kernel's quantum expiry is; it logs every test.
type markCond struct {
	set  bool
	m    *Machine
	logf func(string, ...any)
}

func (c *markCond) Holds() bool {
	c.logf("stop tested at %d: %v", c.m.Eng.Now(), c.set)
	return c.set
}

// testQueue is an IdleQueue driven by the scenario.
type testQueue struct{ stopping, ready bool }

func (q *testQueue) Stopping() bool { return q.stopping }
func (q *testQueue) Ready() bool    { return q.ready }

// loopScenarios each put cpu 0 in a wait loop and have cpu 1 post
// shootdown IPIs into it, while cpu 2 loads the bus. With loopCosts, an
// IPI posted at t is sent at about t+2.6 µs, nudges its target at about
// t+10.6 µs, and its handler takes about 60 µs: the times below make
// IPIs land mid-sleep, while masked, and back to back.
var loopScenarios = []struct {
	name string
	run  func(m *Machine, lp loops, logf func(string, ...any))
}{
	{"spin", func(m *Machine, lp loops, logf func(string, ...any)) {
		c := &flagCond{set: true}
		spawnOn(m, "spinner", 0, func(ex *Exec) {
			ex.Advance(1_000)
			lp.spinWhile(ex, c)
			logf("spin done at %d", ex.Now())
			ex.Advance(1_000)
		})
		spawnOn(m, "poster", 1, func(ex *Exec) {
			ex.Advance(10_000)
			ex.SendIPI([]int{0}) // mid-check
			ex.Advance(9_000)
			ex.SendIPI([]int{0}) // while the first handler runs
			ex.Advance(150_000)
			ex.SendIPI([]int{0})
			ex.Advance(100_000)
			c.set = false
		})
	}},
	{"poll", func(m *Machine, lp loops, logf func(string, ...any)) {
		q := &testQueue{}
		l := &SpinLock{Name: "sched", MinIPL: IPLHigh}
		spawnOn(m, "idle", 0, func(ex *Exec) {
			prev, ok := lp.poll(ex, l, q, 20_000)
			logf("poll ready %v at %d", ok, ex.Now())
			if ok {
				l.Unlock(ex, prev)
			}
			q.ready = false
			_, ok = lp.poll(ex, l, q, 20_000)
			logf("poll ready %v at %d", ok, ex.Now())
		})
		spawnOn(m, "poster", 1, func(ex *Exec) {
			ex.Advance(7_000)
			ex.SendIPI([]int{0}) // mid-tick
			ex.Advance(80_000)
			prev := l.Lock(ex) // the poll spins on the lock, masked
			ex.Advance(6_000)
			ex.SendIPI([]int{0}) // delivered when the poll lowers its IPL
			ex.Advance(30_000)
			l.Unlock(ex, prev)
			ex.Advance(100_000)
			q.ready = true
			ex.Advance(50_000)
			ex.SendIPI([]int{0})
			ex.Advance(100_000)
			q.stopping = true
		})
	}},
	{"chunks", func(m *Machine, lp loops, logf func(string, ...any)) {
		c := &markCond{m: m, logf: logf}
		m.SetHandler(VecTimer, func(ex *Exec, v Vector) {
			logf("timer handler on cpu%d at %d", ex.CPUID(), ex.Now())
			c.set = true
		})
		spawnOn(m, "computer", 0, func(ex *Exec) {
			ex.Advance(1_000) // slices end at 101 µs, 201 µs, ... until a handler runs
			left := sim.Time(950_000)
			for i := 0; left > 0; i++ {
				left = lp.advanceChunks(ex, left, 100_000, c)
				logf("chunks left %d at %d", left, ex.Now())
				// The first return leaves stop holding: the next call
				// still runs one slice.
				if i > 0 {
					c.set = false
				}
			}
			ex.Advance(1_000)
		})
		spawnOn(m, "poster", 1, func(ex *Exec) {
			ex.Advance(98_000)
			m.Post(0, VecTimer) // its nudge lands after the first slice: delivered at the boundary
			ex.Advance(60_000)
			ex.SendIPI([]int{0}) // masked by the timer handler: delivered at the same boundary
			ex.Advance(200_000)
			ex.SendIPI([]int{0}) // mid-slice
			ex.Advance(10_000)
			m.Post(0, VecTimer) // mid-slice, while the IPI's handler runs: stop holds at the slice's end
		})
	}},
	{"bus", func(m *Machine, lp loops, logf func(string, ...any)) {
		spawnOn(m, "staller", 0, func(ex *Exec) {
			for i := 0; i < 2; i++ {
				ex.Advance(1_000)
				logf("stall begins at %d", ex.Now())
				lp.busStall(ex, "test-save", 40)
				logf("stall done at %d", ex.Now())
				ex.Advance(20_000)
			}
		})
		spawnOn(m, "poster", 1, func(ex *Exec) {
			ex.Advance(5_000)
			ex.SendIPI([]int{0}) // mid-stall: it waits the stall out
			ex.Advance(97_000)
			ex.SendIPI([]int{0})
		})
	}},
}

// loopCosts are the default costs with interrupts made cheap enough for
// several to fit into one wait loop.
func loopCosts() Costs {
	c := DefaultCosts()
	c.IPISend = 2_000
	c.IRQDispatch = 20_000
	c.IRQReturn = 4_000
	return c
}

// spawnOn runs fn as a proc attached to cpu.
func spawnOn(m *Machine, name string, cpu int, fn func(ex *Exec)) {
	m.Eng.Spawn(name, func(p *sim.Proc) {
		ex := m.Attach(p, cpu)
		defer ex.Detach()
		fn(ex)
	})
}

// logSink logs every typed event the stream emits, including the lock
// and bus-stall kinds the ring does not store.
type logSink struct{ logf func(string, ...any) }

func (logSink) Kinds() trace.KindSet { return ^trace.KindSet(0) }
func (s logSink) Observe(k trace.Kind, ts int64, cpu int, name string, a1, a2 int64) {
	s.logf("event %d ts=%d cpu=%d %s %d %d", k, ts, cpu, name, a1, a2)
}

// runLoopScenario runs one scenario on a fresh traced machine with
// jittered costs and returns everything observable: the log (each
// handler run, which stalls on the bus and spins in cpu 0's loop slot
// itself, and every typed event as emitted), the ring's trace events,
// and the final counts.
func runLoopScenario(t *testing.T, scenario func(*Machine, loops, func(string, ...any)), lp loops) (string, *Machine) {
	t.Helper()
	tr, err := trace.New(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	eng := sim.New(sim.WithTracer(trace.Stream(tr, nil, logSink{logf})), sim.WithMaxTime(1_000_000_000))
	m := New(eng, Options{NumCPUs: 3, MemFrames: 64, Costs: loopCosts(), Seed: 3})
	m.SetHandler(VecIPI, func(ex *Exec, v Vector) {
		logf("ipi handler on cpu%d at %d", ex.CPUID(), ex.Now())
		ex.ChargeBusWrites(2)
		ex.SpinWhile(&countCond{n: 3})
	})
	spawnOn(m, "bus-load", 2, func(ex *Exec) {
		for i := 0; i < 30; i++ {
			ex.ChargeBusWrites(4)
			ex.Advance(2_500)
		}
	})
	scenario(m, lp, logf)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events() {
		log = append(log, fmt.Sprint(ev))
	}
	log = append(log, fmt.Sprintf("now %d steps %d bus %d rng %d", eng.Now(), eng.StepCount(), m.Bus.Transactions, m.rngDraws))
	return strings.Join(log, "\n"), m
}

// TestLoopsMatchReference posts IPIs to a CPU mid-SpinWhile, mid-idle-
// poll (mid-tick, and while the poll spins masked on its lock), mid-
// bus-stall and into a chunked advance (mid-slice and at a slice
// boundary, with timer handlers that make its stop condition hold, and
// a call entered with stop already holding), and checks that every
// handler runs at the same virtual time, and the whole trace-event
// sequence is the same, as when the CPU runs the straight-line
// reference loop. The machine's loops must also
// have run steps on the engine's stack.
func TestLoopsMatchReference(t *testing.T) {
	for _, sc := range loopScenarios {
		t.Run(sc.name, func(t *testing.T) {
			want, _ := runLoopScenario(t, sc.run, referenceLoops)
			got, m := runLoopScenario(t, sc.run, machineLoops)
			if got != want {
				a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
				for i := range min(len(a), len(b)) {
					if a[i] != b[i] {
						t.Fatalf("first difference at line %d:\nreference %s\nmachine   %s", i, a[i], b[i])
					}
				}
				t.Fatalf("reference run has %d lines, machine run %d", len(a), len(b))
			}
			if n := strings.Count(got, "ipi handler on cpu0"); n < 2 {
				t.Fatalf("%d IPI handler runs, want at least 2:\n%s", n, got)
			}
			if m.Eng.LoopSteps() == 0 {
				t.Fatal("no loop step ran on the engine's stack")
			}
		})
	}
}
