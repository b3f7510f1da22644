package kernel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/pmap"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
	"shootdown/internal/vm"
)

// refCountLoop is the §5.1 tester child's body as straight-line
// coroutine code. CountLoop runs it as one loop on the engine's stack
// and must charge, fault and preempt exactly as it does. mark is called
// as each read, write and think begins; it only records.
func refCountLoop(t *Thread, va ptable.VAddr, think sim.Time, stop *bool, mark func(phase string)) error {
	for !*stop {
		mark("read")
		v, err := t.Read(va)
		if err != nil {
			return err
		}
		mark("write")
		if err := t.Write(va, v+1); err != nil {
			return err
		}
		mark("think")
		t.Compute(think)
	}
	return nil
}

// countCosts are the default costs with probes and reads long enough,
// interrupts quick enough to nudge a counter mid-probe, and handlers
// cheap enough, for IPIs to land in every phase of an iteration.
func countCosts() machine.Costs {
	c := machine.DefaultCosts()
	c.TLBProbe = 1_200
	c.MemRead = 900
	c.IPISend = 2_000
	c.IRQDispatch = 6_000
	c.IRQDispatchBusWrites = 4
	c.IRQReturn = 2_000
	c.ContextSwitch = 20_000
	c.IRQLatency = 300
	return c
}

// countThink is the counters' think time.
const countThink sim.Time = 5_000

// countMark is the moment a reference counter began a phase.
type countMark struct {
	phase string
	cpu   int
	at    sim.Time
}

// countSink logs every typed event and, for the coverage check, keeps
// each CPU's store stalls and the times IPIs were posted to it.
type countSink struct {
	logf   func(string, ...any)
	open   map[int]int64 // CPU -> start of its store stall in progress
	stores [][3]int64    // cpu, start, end
	posts  [][2]int64    // cpu, post time
}

func (*countSink) Kinds() trace.KindSet { return ^trace.KindSet(0) }
func (s *countSink) Observe(k trace.Kind, ts int64, cpu int, name string, a1, a2 int64) {
	s.logf("event %d ts=%d cpu=%d %s %d %d", k, ts, cpu, name, a1, a2)
	switch {
	case k == trace.KindBusBegin && name == "store":
		s.open[cpu] = ts
	case k == trace.KindBusEnd:
		if t0, ok := s.open[cpu]; ok {
			s.stores = append(s.stores, [3]int64{int64(cpu), t0, ts})
			delete(s.open, cpu)
		}
	case k == trace.KindIPIPost:
		s.posts = append(s.posts, [2]int64{int64(cpu), ts})
	}
}

// countUses logs each translation the MMU grants from or loads into a
// TLB.
type countUses struct{ logf func(string, ...any) }

func (u countUses) OnTLBUse(cpu int, va ptable.VAddr, asid tlb.ASID, e ptable.PTE, _ *ptable.Table, write bool) {
	u.logf("use cpu%d %#x asid %d pte %#x write %v", cpu, va, asid, e, write)
}

func (u countUses) OnTLBInsert(cpu int, va ptable.VAddr, asid tlb.ASID, e ptable.PTE, _ *ptable.Table) {
	u.logf("insert cpu%d %#x asid %d pte %#x", cpu, va, asid, e)
}

// counter is one implementation of the tester child's body.
type counter func(t *Thread, va ptable.VAddr, think sim.Time, stop *bool) error

// runCountWorld runs four counters and a protector, on three CPUs under
// a 397 µs clock and a 400 µs quantum, with cost jitter and chaos ties,
// while an interrupt source posts IPIs into the CPUs every 20-40 µs
// from the counters' spawn until the stop flag is set.
// The counters run in a task forked from the one that wrote their first
// two pages: the first write to each of those pages takes a
// copy-on-write fault, and the third page takes a zero-fill fault on
// its first read. The protector reprotects the second page read-only
// mid-run, so its counter dies on a protection fault, and later sets
// the stop flag, which the other counters see mid-iteration. The third
// page's counter enters its loop with its quantum marked expired. It
// returns everything observable: each counter's end and final count, every typed event (handlers, bus
// stalls, posts, lock spins, dispatches), every TLB use and insert, and
// the final TLB, bus and engine counts.
func runCountWorld(t *testing.T, wb tlb.WritebackPolicy, count counter, sink *countSink) (string, *Kernel) {
	t.Helper()
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	sink.logf, sink.open = logf, map[int]int64{}
	tr, err := trace.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	opts := machine.Options{NumCPUs: 3, MemFrames: 256, Costs: countCosts(), Seed: 5}
	opts.TLB.Writeback = wb
	k, err := New(Config{
		Machine:       opts,
		TimerInterval: 397_000,
		Quantum:       400_000,
		ChaosSeed:     3,
		MaxTime:       1_000_000_000,
		Tracer:        trace.Stream(tr, nil, sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	k.M.SetMMUObserver(countUses{logf})
	parent, err := k.NewTask("parent")
	if err != nil {
		t.Fatal(err)
	}
	stop, posting := false, false
	parent.Spawn("main", func(th *Thread) {
		va, err := th.VMAllocate(3 * mem.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		for p := ptable.VAddr(0); p < 2; p++ {
			if err := th.Write(va+p*mem.PageSize, 7); err != nil {
				t.Error(err)
				return
			}
		}
		child, err := th.ForkTask("child")
		if err != nil {
			t.Error(err)
			return
		}
		var threads []*Thread
		for i, at := range []ptable.VAddr{0, mem.WordSize, mem.PageSize, 2 * mem.PageSize} {
			threads = append(threads, child.Spawn(fmt.Sprintf("c%d", i), func(c *Thread) {
				if i == 3 {
					// Fault the page in, run past a tick with the quantum
					// expired, and load the TLB: the counter enters its
					// loop marked, and its first read hits.
					if _, err := c.Read(va + at); err != nil {
						t.Error(err)
					}
					c.ex.Advance(900_000)
					_, f := c.ex.Read(va + at)
					logf("%s enters marked %v at %d; %v", c.name, c.needResched, c.Now(), f)
				}
				err := count(c, va+at, countThink, &stop)
				v, rerr := c.Read(va + at)
				logf("%s ended at %d on cpu%d: %v; count %d %v", c.name, c.Now(), c.CPU(), err, v, rerr)
			}))
		}
		threads = append(threads, child.Spawn("protector", func(p *Thread) {
			p.Compute(600_000)
			err := p.VMProtect(va+mem.PageSize, va+2*mem.PageSize, pmap.ProtRead)
			logf("protected at %d: %v", p.Now(), err)
			p.Compute(600_000)
			stop = true
			logf("stop set at %d", p.Now())
		}))
		posting = true
		for _, c := range threads {
			th.Join(c)
		}
	})
	// Random gaps keep the posts from locking onto the counters' phase:
	// each handler restarts a counter's iteration at its think.
	rng := rand.New(rand.NewSource(1))
	k.Eng.Spawn("ipis", func(p *sim.Proc) {
		for i := 0; !stop; i++ {
			p.Sleep(sim.Time(20_000 + rng.Int63n(20_000)))
			if posting {
				k.M.Post(i%3, machine.VecIPI)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events() {
		logf("%v", ev)
	}
	for i := 0; i < 3; i++ {
		logf("cpu%d tlb %+v", i, k.M.CPU(i).TLB.Stats())
	}
	logf("vm %+v", k.VM.Stats())
	logf("now %d steps %d ties %d bus %d", k.Eng.Now(), k.Eng.StepCount(), k.Eng.TieCount(), k.M.Bus.Transactions)
	return strings.Join(log, "\n"), k
}

// countCoverage counts the IPIs whose nudge woke a counter in the
// reference run mid-sleep: posted while the counter was probing its TLB,
// stalled on its store's bus transaction, or thinking (in the first 4 µs
// of a think), with the nudge, IRQLatency later, before that sleep's end.
// A probe or store absorbs its nudge and sleeps on; a think delivers.
func countCoverage(sink *countSink, marks []countMark, c machine.Costs) (probe, store, think int) {
	minProbe := int64(float64(c.TLBProbe) * (1 - c.JitterPct))
	lat := int64(c.IRQLatency)
	for _, p := range sink.posts {
		cpu, at := p[0], p[1]
		for _, s := range sink.stores {
			if s[0] == cpu && s[1] <= at && at+lat < s[2] {
				store++
			}
		}
		for _, m := range marks {
			if int64(m.cpu) != cpu || at < int64(m.at) {
				continue
			}
			switch d := at + lat - int64(m.at); {
			case m.phase != "think" && d < minProbe:
				probe++
			case m.phase == "think" && d < 4_000:
				think++
			}
		}
	}
	return probe, store, think
}

// TestCountLoopMatchesReference runs the counter world with CountLoop
// and with the straight-line reference body, under each writeback mode,
// and checks that every handler runs at the same virtual time, every
// typed event, TLB use and insert comes in the same order, and the
// counters and TLB counts end the same. The reference run must have
// IPIs landing mid-probe, mid-store and mid-think, a zero-fill and a
// copy-on-write fault, a protection fault that ends a counter, timer
// preemptions and counters stopped by the flag; the CountLoop run must
// have run loop steps on the engine's stack.
func TestCountLoopMatchesReference(t *testing.T) {
	for _, wb := range []tlb.WritebackPolicy{tlb.WritebackBlind, tlb.WritebackInterlocked, tlb.WritebackNone} {
		t.Run(fmt.Sprint(wb), func(t *testing.T) {
			var marks []countMark
			ref := func(th *Thread, va ptable.VAddr, think sim.Time, stop *bool) error {
				return refCountLoop(th, va, think, stop, func(phase string) {
					marks = append(marks, countMark{phase, th.CPU(), th.Now()})
				})
			}
			refSink := &countSink{}
			want, rk := runCountWorld(t, wb, ref, refSink)
			got, k := runCountWorld(t, wb, (*Thread).CountLoop, &countSink{})
			if got != want {
				a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
				for i := range min(len(a), len(b)) {
					if a[i] != b[i] {
						t.Fatalf("first difference at line %d:\nreference %s\nCountLoop %s", i, a[i], b[i])
					}
				}
				t.Fatalf("reference run has %d lines, CountLoop run %d", len(a), len(b))
			}
			probe, store, think := countCoverage(refSink, marks, countCosts())
			t.Logf("IPIs landed %d times mid-probe, %d mid-store, %d mid-think", probe, store, think)
			if probe == 0 || store == 0 || think == 0 {
				t.Errorf("IPIs landed %d times mid-probe, %d mid-store, %d mid-think; want each at least once", probe, store, think)
			}
			if s := rk.VM.Stats(); s.ZeroFills == 0 || s.CowCopies == 0 {
				t.Errorf("vm stats %+v: want zero-fill and copy-on-write faults", s)
			}
			if n := strings.Count(want, vm.ErrProtection.Error()); n != 1 {
				t.Errorf("%d counters ended on a protection fault, want 1", n)
			}
			if n := strings.Count(want, ": <nil>; count"); n != 3 {
				t.Errorf("%d counters stopped at the flag, want 3", n)
			}
			if !strings.Contains(want, "c3 enters marked true") {
				t.Error("c3 entered its loop unmarked")
			}
			if n := strings.Count(want, "thread-run"); n < 40 {
				t.Errorf("%d thread-run events, want the counters preempted often", n)
			}
			if k.Eng.LoopSteps() <= rk.Eng.LoopSteps() {
				t.Errorf("%d loop steps with CountLoop, %d with the reference: want more", k.Eng.LoopSteps(), rk.Eng.LoopSteps())
			}
		})
	}
}
