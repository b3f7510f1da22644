package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// checkRunq fails t unless the run queue's tree is consistent and agrees
// with a linear scan of the procs. Every internal node must be the join
// of its children in wake and count, and name some proc at its wake in
// its subtree. The free list must hold exactly the free leaves, and each
// other leaf must name the proc whose slot it is, keyed by its wake, so
// slot ↔ proc is a bijection. The queued procs must be exactly the new,
// sleeping and running ones (the running proc keeps its leaf). The
// root's wake, count and the procs ties finds must equal the scan's
// minimum wake and its tie set, and the root must name one of them.
func checkRunq(t testing.TB, e *Engine) {
	t.Helper()
	n := e.runq.nodes
	leaves := len(n) / 2
	if leaves < minLeaves || leaves&(leaves-1) != 0 {
		t.Fatalf("step %d: %d leaves, want a power of two of at least %d", e.step, leaves, minLeaves)
	}
	for i := leaves - 1; i > 0; i-- {
		if nd, j := n[i], join(n[2*i], n[2*i+1]); nd.wake != j.wake || nd.count != j.count {
			t.Fatalf("step %d: node %d is %+v, the join of its children is %+v", e.step, i, nd, j)
		}
	}
	free := map[int]bool{}
	for s := int(e.runq.free); s >= 0; s = int(n[leaves+s].id) {
		if s >= leaves || free[s] || n[leaves+s].wake != maxWake || n[leaves+s].count != 0 {
			t.Fatalf("step %d: free slot %d out of range, listed twice or not free: %+v", e.step, s, n[leaves+min(s, leaves-1)])
		}
		free[s] = true
	}
	for s := 0; s < leaves; s++ {
		nd := n[leaves+s]
		if free[s] {
			continue
		}
		if nd.count != 1 || nd.id < 0 || int(nd.id) >= len(e.procs) {
			t.Fatalf("step %d: slot %d is neither free nor a proc's: %+v", e.step, s, nd)
		}
		if p := e.procs[nd.id]; p.slot != s || p.wake != nd.wake {
			t.Fatalf("step %d: slot %d names %q, whose slot is %d and wake %d, keyed %d", e.step, s, p.name, p.slot, p.wake, nd.wake)
		}
	}
	for i := leaves - 1; i > 0; i-- {
		if nd := n[i]; nd.count > 0 {
			p := e.procs[nd.id]
			if p.wake != nd.wake || (leaves+p.slot)>>(bits.Len(uint(leaves+p.slot))-bits.Len(uint(i))) != i {
				t.Fatalf("step %d: node %d names %q (slot %d, wake %d), not a proc at its wake %d below it", e.step, i, p.name, p.slot, p.wake, nd.wake)
			}
		}
	}
	for _, p := range e.procs {
		if (p.slot >= 0) != queuedState(p) {
			t.Fatalf("step %d: proc %q [%v] at slot %d", e.step, p.name, p.state, p.slot)
		}
		if p.slot >= 0 && (p.slot >= leaves || free[p.slot] || n[leaves+p.slot].id != int32(p.id)) {
			t.Fatalf("step %d: proc %q's slot %d is not its leaf", e.step, p.name, p.slot)
		}
	}
	scan, root := scanQueue(e), n[1]
	if len(scan) == 0 {
		if root.count != 0 {
			t.Fatalf("step %d: nothing queued, root %+v", e.step, root)
		}
		return
	}
	if root.wake != scan[0].wake || int(root.count) != len(scan) || !slices.Contains(scan, e.procs[root.id]) {
		t.Fatalf("step %d: root %+v (%q), scan finds %d procs at wake %d", e.step, root, e.procs[root.id].name, len(scan), scan[0].wake)
	}
	if walk := bySeq(e.runq.ties(1, e.procs, nil)); !slices.Equal(walk, scan) {
		t.Fatalf("step %d: ties found %d procs, scan %d", e.step, len(walk), len(scan))
	}
}

// queuedState reports whether p's state puts it in the run queue.
func queuedState(p *Proc) bool {
	return p.state == StateNew || p.state == StateSleeping || p.state == StateRunning
}

// runStepwise runs e to the end one step at a time, calling checkRunq
// after every step.
func runStepwise(t testing.TB, e *Engine) error {
	t.Helper()
	for {
		before := e.StepCount()
		if err := e.RunUntilStep(before + 1); err != nil {
			return err
		}
		checkRunq(t, e)
		if e.StepCount() == before {
			return nil
		}
	}
}

// scanQueue is the linear scan the tree replaces: the queued procs at the
// minimum wake, sorted by seq, so the first is the first in (wake, seq)
// order.
func scanQueue(e *Engine) []*Proc {
	var out []*Proc
	for _, p := range e.procs {
		switch {
		case !queuedState(p):
		case len(out) == 0 || p.wake < out[0].wake:
			out = append(out[:0], p)
		case p.wake == out[0].wake:
			out = append(out, p)
		}
	}
	return bySeq(out)
}

func bySeq(ps []*Proc) []*Proc {
	slices.SortFunc(ps, func(a, b *Proc) int { return cmp.Compare(a.seq, b.seq) })
	return ps
}

// TestTieWalkMatchesScan builds run queues through Spawn, Preempt, Kill,
// Wake, Block and Sleep at a few wake times, so ties are everywhere, and
// checks after every operation and every step (checkRunq) that the tree's
// root wake, count and tie set match a linear scan over (wake, seq), so
// that pick skips the walk exactly when one proc holds the minimum wake.
// It also checks that a Sleep only continues in place when no proc
// shares the sleeper's wake, so no chaos draw is skipped.
func TestTieWalkMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	maxTied := 0
	for trial := 0; trial < 100; trial++ {
		e := New(WithChaos(rng.Int63()))
		walks := 0
		check := func() {
			checkRunq(t, e)
			if scan := scanQueue(e); len(scan) > 0 {
				walks++
				maxTied = max(maxTied, len(scan))
			}
		}
		var procs []*Proc
		someDelay := func() Time { return Time(5 * rng.Intn(3)) }
		var body func(p *Proc)
		body = func(p *Proc) {
			for r := rng.Intn(6); r > 0; r-- {
				switch op := rng.Intn(10); {
				case op == 0:
					p.Block()
				case op == 1 && len(procs) < 64:
					procs = append(procs, e.Spawn(fmt.Sprintf("p%d", len(procs)), body))
				case op == 2:
					e.Preempt(procs[rng.Intn(len(procs))], e.Now()+someDelay())
				case op == 3:
					if q := procs[rng.Intn(len(procs))]; q != p {
						e.Kill(q)
					}
				case op <= 5:
					e.Wake(procs[rng.Intn(len(procs))])
				default:
					inline := e.InlineSteps()
					p.Sleep(someDelay())
					if e.InlineSteps() > inline && len(scanQueue(e)) != 1 {
						t.Fatalf("trial %d step %d: %q continued in place while tied", trial, e.step, p.name)
					}
				}
				check()
			}
		}
		for i := 0; i < 2+rng.Intn(30); i++ {
			procs = append(procs, e.Spawn(fmt.Sprintf("p%d", len(procs)), body))
			check()
		}
		if err := runStepwise(t, e); err != nil && !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if walks == 0 {
			t.Fatalf("trial %d compared no ties", trial)
		}
	}
	if maxTied < 8 {
		t.Fatalf("at most %d procs tied in any queue, want deep tie subtrees", maxTied)
	}
}

// TestRunTreeGrowsAndReusesSlots queues procs past each power of two
// from the tree's first size to 512 leaves, checking the tree after
// every Spawn. Once every proc has blocked, freeing its leaf, it queues
// as many again by Wake and Spawn, which must reuse the freed slots
// rather than grow the tree, and runs the world out a step at a time.
func TestRunTreeGrowsAndReusesSlots(t *testing.T) {
	const procs = 300
	rng := rand.New(rand.NewSource(1))
	e := New(WithChaos(1))
	defer e.Close()
	body := func(p *Proc) {
		p.Sleep(Time(rng.Intn(40)))
		p.Block()
		p.Sleep(Time(rng.Intn(40)))
	}
	leaves := func() int { return len(e.runq.nodes) / 2 }
	var spawned []*Proc
	for i := 1; i <= procs; i++ {
		spawned = append(spawned, e.Spawn(fmt.Sprintf("p%d", i), body))
		checkRunq(t, e)
		want := minLeaves
		for want < i {
			want *= 2
		}
		if leaves() != want {
			t.Fatalf("%d procs queued in %d leaves, want %d", i, leaves(), want)
		}
	}
	if err := runStepwise(t, e); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("run to the blocks: %v, want a deadlock", err)
	}
	if !e.runq.empty() {
		t.Fatal("procs still queued with every proc blocked")
	}
	for i, p := range spawned {
		if i%2 == 0 {
			e.Wake(p)
		} else {
			e.Spawn(fmt.Sprintf("q%d", i), body)
		}
		checkRunq(t, e)
	}
	if leaves() != 512 {
		t.Fatalf("requeueing %d procs into freed slots grew the tree to %d leaves", procs, leaves())
	}
	if err := runStepwise(t, e); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("second run: %v, want the new procs blocked", err)
	}
	for i := 0; i < procs; i += 2 {
		if p := spawned[i]; p.State() != StateDone {
			t.Fatalf("woken proc %q ended %v", p.Name(), p.State())
		}
	}
}

// inPlaceRigs are the engines the in-place bound tests run on: a lone
// proc, without and with chaos, and a proc among 16 chaos sleepers queued
// far in the future, the state a 16-CPU workload's engine runs in.
var inPlaceRigs = []struct {
	name   string
	queued int
	chaos  bool
}{
	{"lone", 0, false},
	{"lone-chaos", 0, true},
	{"q16-chaos", 16, true},
}

// queuedEngine builds an engine with queued sleepers that have already
// run once and now sleep far in the future.
func queuedEngine(t testing.TB, queued int, chaos bool, opts ...Option) *Engine {
	t.Helper()
	if chaos {
		opts = append(opts, WithChaos(1))
	}
	e := New(opts...)
	for i := 0; i < queued; i++ {
		e.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) { p.Sleep(1 << 50) })
	}
	if err := e.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	return e
}

// ticker spawns a proc that records its clock, then sleeps d, n times,
// checking the run queue each time Sleep returns.
func ticker(t *testing.T, e *Engine, d Time, n int, ticks *[]Time) *Proc {
	return e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < n; i++ {
			*ticks = append(*ticks, p.Clock())
			p.Sleep(d)
			checkRunq(t, e)
		}
	})
}

func TestInPlaceRunUntilStepPausesExactly(t *testing.T) {
	for _, rig := range inPlaceRigs {
		t.Run(rig.name, func(t *testing.T) {
			e := queuedEngine(t, rig.queued, rig.chaos)
			base := e.StepCount()
			var ticks []Time
			tk := ticker(t, e, 1, 100, &ticks)
			for i, n := range []uint64{10, 25} {
				if err := e.RunUntilStep(base + n); err != nil {
					t.Fatal(err)
				}
				if got := e.StepCount(); got != base+n {
					t.Fatalf("RunUntilStep(%d) paused at step %d", base+n, got)
				}
				// The ticker's first resumption after each pause is
				// switched; every other one is in place.
				if got, want := e.InlineSteps(), n-uint64(i+1); got != want {
					t.Fatalf("after step %d: %d inline steps, want %d", base+n, got, want)
				}
				if len(ticks) != int(n) || tk.State() != StateSleeping || e.Now() != Time(n-1) {
					t.Fatalf("after step %d: %d ticks, ticker %v, now %d", base+n, len(ticks), tk.State(), e.Now())
				}
				checkRunq(t, e)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if len(ticks) != 100 || ticks[99] != 99 {
				t.Fatalf("ticks after Run: %d, last %d", len(ticks), ticks[len(ticks)-1])
			}
		})
	}
}

func TestInPlaceRunUntilLeavesProcQueued(t *testing.T) {
	for _, rig := range inPlaceRigs {
		t.Run(rig.name, func(t *testing.T) {
			e := queuedEngine(t, rig.queued, rig.chaos)
			var ticks []Time
			tk := ticker(t, e, 10, 100, &ticks)
			if err := e.RunUntil(55); err != nil {
				t.Fatal(err)
			}
			if e.Now() != 55 || len(ticks) != 6 || ticks[5] != 50 {
				t.Fatalf("RunUntil(55): now %d, ticks %v", e.Now(), ticks)
			}
			if tk.State() != StateSleeping || tk.slot < 0 || tk.wake != 60 {
				t.Fatalf("RunUntil(55) left the ticker %v at slot %d, wake %d", tk.State(), tk.slot, tk.wake)
			}
			checkRunq(t, e)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if len(ticks) != 100 || tk.State() != StateDone || tk.Clock() != 1000 {
				t.Fatalf("after Run: %d ticks, ticker %v at %d", len(ticks), tk.State(), tk.Clock())
			}
		})
	}
}

func TestInPlaceStopHaltsRun(t *testing.T) {
	for _, rig := range inPlaceRigs {
		t.Run(rig.name, func(t *testing.T) {
			e := queuedEngine(t, rig.queued, rig.chaos)
			var ticks []Time
			tk := e.Spawn("ticker", func(p *Proc) {
				for i := 0; i < 10; i++ {
					ticks = append(ticks, p.Clock())
					if p.Clock() == 30 {
						e.Stop()
					}
					p.Sleep(10)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if e.Now() != 30 || len(ticks) != 4 || tk.State() != StateSleeping {
				t.Fatalf("Stop at 30: now %d, ticks %v, ticker %v", e.Now(), ticks, tk.State())
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if len(ticks) != 10 {
				t.Fatalf("ticks after the second Run: %v", ticks)
			}
		})
	}
}

func TestInPlaceMaxTimeStillFails(t *testing.T) {
	for _, rig := range inPlaceRigs {
		t.Run(rig.name, func(t *testing.T) {
			e := queuedEngine(t, rig.queued, rig.chaos, WithMaxTime(1000))
			var ticks []Time
			ticker(t, e, 100, 1<<20, &ticks)
			err := e.Run()
			if err == nil || !strings.Contains(err.Error(), "virtual time limit 1000 exceeded (next wake 1100") {
				t.Fatalf("err = %v, want the time-limit error at wake 1100", err)
			}
			if e.Now() != 1000 || ticks[len(ticks)-1] != 1000 {
				t.Fatalf("now %d, last tick %d, want both 1000", e.Now(), ticks[len(ticks)-1])
			}
		})
	}
}

// TestInPlaceKeepsChaosTies runs a ticker that continues in place between
// ties with a slower peer. Every tie must still consume its draw and
// reach the recorder. The decisions, order and counters are pinned from
// an engine that switched on every step, so a skipped or extra draw
// shows.
func TestInPlaceKeepsChaosTies(t *testing.T) {
	e := queuedEngine(t, 16, true)
	var ties []string
	e.setTieRecorder(func(d tieDecision) {
		ties = append(ties, fmt.Sprintf("%d@%d %s<%s>", d.Step, d.NowNS, d.Tied[d.Pick], strings.Join(d.Tied, ",")))
	})
	var order []string
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 12; i++ {
			order = append(order, fmt.Sprintf("t@%d", p.Clock()))
			p.Sleep(10)
		}
	})
	e.Spawn("peer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, fmt.Sprintf("p@%d", p.Clock()))
			p.Sleep(40)
		}
	})
	if err := e.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	wantTies := []string{"16@0 ticker<ticker,peer>", "21@40 ticker<peer,ticker>", "26@80 ticker<peer,ticker>", "31@120 ticker<peer,ticker>"}
	wantOrder := "t@0 p@0 t@10 t@20 t@30 t@40 p@40 t@50 t@60 t@70 t@80 p@80 t@90 t@100 t@110"
	if !slices.Equal(ties, wantTies) {
		t.Errorf("tie decisions %q\nwant %q", ties, wantTies)
	}
	if got := strings.Join(order, " "); got != wantOrder {
		t.Errorf("order %s\nwant  %s", got, wantOrder)
	}
	if e.StepCount() != 33 || e.ChaosDraws() != 19 || e.TieCount() != 19 || e.Now() != 200 {
		t.Errorf("steps %d draws %d ties %d now %d, want 33 19 19 200", e.StepCount(), e.ChaosDraws(), e.TieCount(), e.Now())
	}
	if e.InlineSteps() == 0 {
		t.Error("the ticker never continued in place between ties")
	}
}

// TestResidentRunningProcKeepsResults checks Block, Kill, Preempt and
// Wake from a running proc, which keeps its leaf while it runs.
func TestResidentRunningProcKeepsResults(t *testing.T) {
	for _, rig := range inPlaceRigs {
		t.Run(rig.name, func(t *testing.T) {
			e := queuedEngine(t, rig.queued, rig.chaos)
			var self, victim, blocked *Proc
			want := func(what string, got, want bool) {
				t.Helper()
				if got != want {
					t.Errorf("%s = %v, want %v", what, got, want)
				}
				checkRunq(t, e)
			}
			blocked = e.Spawn("blocked", func(p *Proc) { p.Block() })
			victim = e.Spawn("victim", func(p *Proc) { p.Sleep(1000) })
			self = e.Spawn("self", func(p *Proc) {
				p.Sleep(10)
				want("Preempt(self)", e.Preempt(self, e.Now()), false)
				want("Wake(self)", e.Wake(self), false)
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "cannot fail-stop itself") {
							t.Errorf("Kill(self) recovered %v, want the self-kill panic", r)
						}
					}()
					e.Kill(self)
				}()
				want("Preempt(victim)", e.Preempt(victim, e.Now()+5), true)
				want("Wake(blocked)", e.Wake(blocked), true)
				want("Wake(blocked) again", e.Wake(blocked), false)
				want("Kill(victim)", e.Kill(victim), true)
				want("Kill(victim) again", e.Kill(victim), false)
				e.Spawn("waker", func(w *Proc) {
					w.Sleep(20)
					want("Wake(self) while blocked", e.Wake(self), true)
				})
				p.Block()
				checkRunq(t, e)
				if p.Clock() != 30 {
					t.Errorf("self woke at %d, want 30", p.Clock())
				}
			})
			if err := runStepwise(t, e); err != nil {
				t.Fatal(err)
			}
			if victim.State() != StateHalted || blocked.State() != StateDone || self.State() != StateDone {
				t.Fatalf("victim %v, blocked %v, self %v", victim.State(), blocked.State(), self.State())
			}
		})
	}
}

// alternating spawns two procs that take turns, one step each: every
// step is a coroutine handoff.
func alternating(e *Engine) {
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("alt%d", i), func(p *Proc) {
			p.Sleep(Time(i))
			for j := 0; j < 1<<16; j++ {
				p.Sleep(2)
			}
		})
	}
}

// alternatingLoops is alternating with each proc's sleeps run as a
// Repeat loop: every step is a loop step, served on the engine's stack.
func alternatingLoops(e *Engine) {
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("loop%d", i), func(p *Proc) {
			p.Sleep(Time(i))
			p.Repeat(&countdown{n: 1 << 16, d: 2})
		})
	}
}

// TestEngineStepAllocatesNothing pins that an engine step, in place,
// switched or a loop step, allocates nothing on the host, among 16 chaos
// sleepers.
func TestEngineStepAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name          string
		inPlace, loop bool
		spawn         func(e *Engine)
	}{
		{"in-place", true, false, func(e *Engine) {
			e.Spawn("ticker", func(p *Proc) {
				for i := 0; i < 1<<16; i++ {
					p.Sleep(1)
				}
			})
		}},
		{"handoff", false, false, alternating},
		{"loop", false, true, alternatingLoops},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := queuedEngine(t, 16, true)
			tc.spawn(e)
			const steps = 100
			step := func() {
				want := e.StepCount() + steps
				if err := e.RunUntilStep(want); err != nil {
					t.Fatal(err)
				}
				if e.StepCount() != want {
					t.Fatalf("RunUntilStep(%d) stopped at step %d", want, e.StepCount())
				}
			}
			step() // let the tie scratch reach its final size
			inline, loop := e.InlineSteps(), e.LoopSteps()
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Errorf("%v allocations per %d steps, want 0", allocs, steps)
			}
			if inPlace := e.InlineSteps() > inline; inPlace != tc.inPlace {
				t.Errorf("steps continued in place: %v, want %v", inPlace, tc.inPlace)
			}
			if looped := e.LoopSteps()-loop == 51*steps; looped != tc.loop {
				t.Errorf("%d of %d steps were loop steps; want all: %v", e.LoopSteps()-loop, 51*steps, tc.loop)
			}
		})
	}
}
