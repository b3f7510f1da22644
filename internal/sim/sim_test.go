package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSingleProcAdvancesTime(t *testing.T) {
	e := New()
	var end Time
	e.Spawn("a", func(p *Proc) {
		if got := p.Sleep(100); got != 100 {
			t.Errorf("Sleep returned %d, want 100", got)
		}
		p.Sleep(50)
		end = p.Clock()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 150 {
		t.Fatalf("clock = %d, want 150", end)
	}
	if e.Now() != 150 {
		t.Fatalf("engine now = %d, want 150", e.Now())
	}
}

func TestInterleavingByVirtualTime(t *testing.T) {
	e := New()
	var order []string
	mark := func(s string) { order = append(order, s) }
	e.Spawn("slow", func(p *Proc) {
		p.Sleep(100)
		mark("slow@100")
		p.Sleep(100)
		mark("slow@200")
	})
	e.Spawn("fast", func(p *Proc) {
		p.Sleep(30)
		mark("fast@30")
		p.Sleep(120)
		mark("fast@150")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "fast@30,slow@100,fast@150,slow@200"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := New()
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Spawn(name, func(p *Proc) {
			p.Sleep(10)
			order = append(order, p.Name())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "p0,p1,p2,p3,p4" {
		t.Fatalf("order = %s, want FIFO", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() string {
		e := New()
		var order []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(10 * (i + 1)))
					order = append(order, fmt.Sprintf("%s@%d", p.Name(), p.Clock()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(order, ",")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestChaosIsSeededDeterministic(t *testing.T) {
	run := func(seed int64) string {
		e := New(WithChaos(seed))
		var order []string
		for i := 0; i < 6; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(10) // all tie at t=10
				order = append(order, p.Name())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(order, ",")
	}
	if run(1) != run(1) {
		t.Fatal("same seed must give same order")
	}
	// Different seeds should usually give different orders; try a few.
	base := run(1)
	differs := false
	for s := int64(2); s < 10; s++ {
		if run(s) != base {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("chaos ordering never varied across seeds")
	}
}

func TestBlockWake(t *testing.T) {
	e := New()
	var events []string
	var waiter *Proc
	waiter = e.Spawn("waiter", func(p *Proc) {
		events = append(events, fmt.Sprintf("block@%d", p.Clock()))
		p.Block()
		events = append(events, fmt.Sprintf("woke@%d", p.Clock()))
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(500)
		if !e.Wake(waiter) {
			t.Error("Wake returned false for blocked proc")
		}
		// Waking again is a no-op.
		if e.Wake(waiter) {
			t.Error("second Wake should be a no-op")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "block@0,woke@500"
	if got := strings.Join(events, ","); got != want {
		t.Fatalf("events = %s, want %s", got, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New()
	e.Spawn("stuck", func(p *Proc) { p.Block() })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error should name the proc: %v", err)
	}
}

func TestPreemptCutsSleepShort(t *testing.T) {
	e := New()
	var victim *Proc
	var slept Time
	victim = e.Spawn("victim", func(p *Proc) {
		slept = p.Sleep(1000)
		if !p.Preempted() {
			t.Error("Preempted() should be true after early wake")
		}
		p.Sleep(1)
		if p.Preempted() {
			t.Error("Preempted() should reset on next sleep")
		}
	})
	e.Spawn("irq", func(p *Proc) {
		p.Sleep(200)
		if !e.Preempt(victim, 250) {
			t.Error("Preempt returned false")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if slept != 250 {
		t.Fatalf("slept = %d, want 250", slept)
	}
}

func TestPreemptNoOpCases(t *testing.T) {
	e := New()
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) {
		p.Sleep(100)
	})
	e.Spawn("irq", func(p *Proc) {
		p.Sleep(10)
		// Target later than current wake: no-op.
		if e.Preempt(victim, 500) {
			t.Error("Preempt to a later time should be a no-op")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Done proc: no-op.
	if e.Preempt(victim, 0) {
		t.Error("Preempt on done proc should be a no-op")
	}
}

func TestPreemptClampsToNow(t *testing.T) {
	e := New()
	var victim *Proc
	var slept Time
	victim = e.Spawn("victim", func(p *Proc) {
		slept = p.Sleep(1000)
	})
	e.Spawn("irq", func(p *Proc) {
		p.Sleep(300)
		e.Preempt(victim, 0) // in the past; clamps to now=300
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if slept != 300 {
		t.Fatalf("slept = %d, want 300", slept)
	}
}

func TestRunUntilResumes(t *testing.T) {
	e := New()
	var ticks []Time
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(100)
			ticks = append(ticks, p.Clock())
		}
	})
	if err := e.RunUntil(250); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 2 {
		t.Fatalf("ticks after RunUntil(250) = %v, want 2 entries", ticks)
	}
	if e.Now() != 250 {
		t.Fatalf("now = %d, want 250", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v, want 5 entries", ticks)
	}
}

func TestStop(t *testing.T) {
	e := New()
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Sleep(10)
			if p.Clock() >= 100 {
				e.Stop()
				p.Block() // never woken; Stop should still end the run
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100", e.Now())
	}
}

func TestSpawnFromInsideProc(t *testing.T) {
	e := New()
	var childClock Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(40)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(10)
			childClock = c.Clock()
		})
		p.Sleep(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childClock != 50 {
		t.Fatalf("child clock = %d, want 50 (spawn at 40 + sleep 10)", childClock)
	}
}

func TestPanicPropagates(t *testing.T) {
	e := New()
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic error containing 'boom'", err)
	}
}

func TestMaxTimeGuard(t *testing.T) {
	e := New(WithMaxTime(1000))
	e.Spawn("forever", func(p *Proc) {
		for {
			p.Sleep(100)
		}
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v, want time-limit error", err)
	}
}

func TestSleepZeroYields(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a1,b1,a2" {
		t.Fatalf("order = %s, want a1,b1,a2", got)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := New()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(-1)
	})
	if err := e.Run(); err == nil {
		t.Fatal("want error from negative sleep")
	}
}

func TestStateReporting(t *testing.T) {
	e := New()
	var blocked *Proc
	blocked = e.Spawn("b", func(p *Proc) { p.Block() })
	e.Spawn("s", func(p *Proc) {
		p.Sleep(10)
		if blocked.State() != StateBlocked {
			t.Errorf("state = %v, want blocked", blocked.State())
		}
		if len(e.BlockedProcs()) != 1 {
			t.Errorf("BlockedProcs = %d, want 1", len(e.BlockedProcs()))
		}
		if e.LiveProcs() != 2 {
			t.Errorf("LiveProcs = %d, want 2", e.LiveProcs())
		}
		e.Wake(blocked)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []State{StateNew, StateRunning, StateSleeping, StateBlocked, StateDone, State(42)} {
		if s.String() == "" {
			t.Fatal("State.String should never be empty")
		}
	}
}

func TestTimeConversions(t *testing.T) {
	tt := Time(2500)
	if tt.Microseconds() != 2.5 {
		t.Fatalf("Microseconds = %v, want 2.5", tt.Microseconds())
	}
	if tt.Duration().Nanoseconds() != 2500 {
		t.Fatalf("Duration = %v", tt.Duration())
	}
}

// Property: under any chaos seed, total virtual time consumed by each proc
// equals the sum of its sleeps (preemption is not used here), and the engine
// clock ends at the max proc clock.
func TestQuickChaosPreservesClocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		e := New(WithChaos(rng.Int63()))
		n := 2 + rng.Intn(6)
		totals := make([]Time, n)
		finals := make([]Time, n)
		for i := 0; i < n; i++ {
			i := i
			steps := 1 + rng.Intn(10)
			durs := make([]Time, steps)
			for j := range durs {
				durs[j] = Time(rng.Intn(50))
				totals[i] += durs[j]
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for _, d := range durs {
					p.Sleep(d)
				}
				finals[i] = p.Clock()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var maxClock Time
		for i := 0; i < n; i++ {
			if finals[i] != totals[i] {
				t.Fatalf("trial %d: proc %d clock %d, want %d", trial, i, finals[i], totals[i])
			}
			if finals[i] > maxClock {
				maxClock = finals[i]
			}
		}
		if e.Now() != maxClock {
			t.Fatalf("trial %d: engine now %d, want %d", trial, e.Now(), maxClock)
		}
	}
}

func TestWaitGraphInDeadlockError(t *testing.T) {
	e := New()
	var a, b *Proc
	a = e.Spawn("a", func(p *Proc) {
		p.SetWaiting(Reason("lock held by b"), b)
		p.Block()
	})
	b = e.Spawn("b", func(p *Proc) {
		p.Sleep(10) // let a block first so the dependency pointers are live
		p.SetWaiting(Reason("lock held by a"), a)
		p.Block()
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"wait graph:", "lock held by b", "lock held by a", "cycle:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock error missing %q:\n%s", want, msg)
		}
	}
}

func TestWaitGraphClearedByWake(t *testing.T) {
	e := New()
	var target *Proc
	target = e.Spawn("target", func(p *Proc) {
		p.SetWaiting(Reason("waiting for waker"))
		p.Block()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(5)
		e.Wake(target)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if reason, _ := target.Waiting(); reason != "" {
		t.Errorf("wait annotation not cleared by Wake: %q", reason)
	}
	if g := e.WaitGraph(); g != "" {
		t.Errorf("wait graph not empty after completion:\n%s", g)
	}
}

func TestKillSleepingProc(t *testing.T) {
	e := New()
	var ran bool
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) {
		p.Sleep(1000)
		ran = true // must never execute
	})
	e.Spawn("killer", func(p *Proc) {
		p.Sleep(100)
		if !e.Kill(victim) {
			t.Error("Kill returned false for sleeping proc")
		}
		if victim.State() != StateHalted {
			t.Errorf("victim state = %v, want halted", victim.State())
		}
		// Killing again is a no-op.
		if e.Kill(victim) {
			t.Error("second Kill should return false")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("halted proc executed past its Kill point")
	}
	if e.Now() != 100 {
		t.Errorf("Now = %d, want 100 (victim's later wake must not run)", e.Now())
	}
}

func TestKillBlockedProcAvoidsDeadlock(t *testing.T) {
	e := New()
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) {
		p.SetWaiting(Reason("never-coming"))
		p.Block()
	})
	e.Spawn("killer", func(p *Proc) {
		p.Sleep(50)
		if !e.Kill(victim) {
			t.Error("Kill returned false for blocked proc")
		}
	})
	// With the blocked proc halted, the run completes instead of
	// reporting a deadlock.
	if err := e.Run(); err != nil {
		t.Fatalf("run after Kill: %v", err)
	}
	if reason, _ := victim.Waiting(); reason != "" {
		t.Errorf("Kill should clear the wait annotation, got %q", reason)
	}
	// A halted proc cannot be woken or preempted.
	if e.Wake(victim) {
		t.Error("Wake on halted proc should be a no-op")
	}
	if e.Preempt(victim, 0) {
		t.Error("Preempt on halted proc should be a no-op")
	}
}

func TestKillExcludesFromLiveProcs(t *testing.T) {
	e := New()
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) { p.Sleep(1000) })
	e.Spawn("killer", func(p *Proc) {
		p.Sleep(10)
		e.Kill(victim)
		if n := e.LiveProcs(); n != 1 { // only the killer
			t.Errorf("halted proc still counted in LiveProcs: %d live, want 1", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFinishedProcsReleaseTheirGoroutines pins the coroutine lifecycle: a
// body that returns ends its sequence function, so its goroutine exits.
// A body whose end were yielded instead would stay parked forever, one
// goroutine per finished proc. Goroutines exit asynchronously (an earlier
// test's goroutine may still be on its way out), so the baseline is taken
// once the count has held still for a while, and the final count gets a
// bounded while to fall back to it; it must then equal it exactly.
func TestFinishedProcsReleaseTheirGoroutines(t *testing.T) {
	base := settledGoroutines()
	e := New()
	for i := 0; i < 100; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Time(1 + p.ID()%7))
			p.Sleep(3)
		})
	}
	if got := runtime.NumGoroutine(); got < base+100 {
		t.Fatalf("%d goroutines with 100 procs spawned, want at least %d", got, base+100)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := waitForGoroutines(base); got != base {
		t.Fatalf("%d goroutines after all 100 procs finished, want the baseline %d", got, base)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 20 ms, or after 5 s.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline, still := time.Now().Add(5*time.Second), 0; still < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestPanicAfterSleepsNamesProcAndStack checks that a panic deep into a
// proc's life (after several suspensions) surfaces from Run as an error
// naming the proc and carrying the panicking body's stack.
func TestPanicAfterSleepsNamesProcAndStack(t *testing.T) {
	e := New()
	e.Spawn("bystander", func(p *Proc) { p.Sleep(100) })
	e.Spawn("bomb", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
		}
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil after a proc panicked")
	}
	for _, want := range []string{`proc "bomb" panicked: boom`, "TestPanicAfterSleepsNamesProcAndStack.func2", "goroutine "} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
	if e.Now() != 50 {
		t.Errorf("Now = %d, want 50 (the panic's time)", e.Now())
	}
}

// TestKilledProcIsNeverResumed checks Kill on both kinds of suspended
// proc: neither runs past its suspension point, however long the engine
// keeps running, and its coroutine stays suspended rather than unwinding
// (no deferred call runs) while the engine runs. Close, once the world is
// done with, unwinds it: the deferred call runs then, and the body still
// never resumes.
func TestKilledProcIsNeverResumed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		suspend func(p *Proc)
	}{
		{"sleeping", func(p *Proc) { p.Sleep(1000) }},
		{"blocked", func(p *Proc) { p.Block() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			var resumed, unwound bool
			victim := e.Spawn("victim", func(p *Proc) {
				defer func() { unwound = true }()
				tc.suspend(p)
				resumed = true
			})
			e.Spawn("killer", func(p *Proc) {
				p.Sleep(50)
				if !e.Kill(victim) {
					t.Error("Kill returned false")
				}
				e.Wake(victim)
				e.Preempt(victim, e.Now())
				for i := 0; i < 10; i++ {
					p.Sleep(500)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if resumed || unwound {
				t.Fatalf("halted proc resumed %v, unwound %v", resumed, unwound)
			}
			if victim.State() != StateHalted {
				t.Fatalf("victim state = %v, want halted", victim.State())
			}
			e.Close()
			if resumed || !unwound {
				t.Fatalf("after Close, halted proc resumed %v, unwound %v; want unwound only", resumed, unwound)
			}
		})
	}
}
