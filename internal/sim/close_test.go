package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"shootdown/internal/trace"
)

// TestCloseReleasesSuspendedProcs checks Close on each state a body can
// be suspended in when a world is done with: the proc's goroutine exits,
// a body that was entered unwinds (its deferred call runs) without
// running past its suspension point, and the proc keeps the state it
// was left in.
func TestCloseReleasesSuspendedProcs(t *testing.T) {
	const procs = 20
	for _, tc := range []struct {
		name  string
		state State
		body  func(p *Proc)
		// drive runs the engine, leaving the victims suspended.
		drive func(t *testing.T, e *Engine, victims []*Proc)
	}{
		{"new", StateNew, func(p *Proc) {}, func(*testing.T, *Engine, []*Proc) {}},
		{"sleeping", StateSleeping, func(p *Proc) { p.Sleep(1000) }, runUntil(100)},
		{"blocked", StateBlocked, func(p *Proc) { p.Block() }, func(t *testing.T, e *Engine, _ []*Proc) {
			if err := e.Run(); !errors.Is(err, ErrDeadlock) {
				t.Fatalf("Run = %v, want a deadlock", err)
			}
		}},
		{"halted", StateHalted, func(p *Proc) { p.Sleep(1000) }, func(t *testing.T, e *Engine, victims []*Proc) {
			e.Spawn("killer", func(p *Proc) {
				p.Sleep(10)
				for _, v := range victims {
					e.Kill(v)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"repeat", StateSleeping, func(p *Proc) { p.Repeat(&countdown{n: 1 << 30, d: 7}) }, runUntil(100)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := settledGoroutines()
			e := New()
			var entered, unwound, resumed int
			victims := make([]*Proc, procs)
			for i := range victims {
				victims[i] = e.Spawn(fmt.Sprintf("v%d", i), func(p *Proc) {
					entered++
					defer func() { unwound++ }()
					tc.body(p)
					resumed++
				})
			}
			tc.drive(t, e, victims)
			if got := runtime.NumGoroutine(); got < base+procs {
				t.Fatalf("%d goroutines with %d suspended procs, want at least %d", got, procs, base+procs)
			}
			e.Close()
			if got := waitForGoroutines(base); got != base {
				t.Fatalf("%d goroutines after Close, want the baseline %d", got, base)
			}
			if unwound != entered || resumed != 0 {
				t.Fatalf("%d bodies entered, %d unwound, %d resumed past their suspension; want all unwound, none resumed",
					entered, unwound, resumed)
			}
			if tc.state != StateNew && entered != procs {
				t.Fatalf("%d of %d bodies entered before Close", entered, procs)
			}
			for _, v := range victims {
				if v.State() != tc.state {
					t.Fatalf("%s state = %v after Close, want %v", v.Name(), v.State(), tc.state)
				}
			}
		})
	}
}

func runUntil(limit Time) func(*testing.T, *Engine, []*Proc) {
	return func(t *testing.T, e *Engine, _ []*Proc) {
		if err := e.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
}

// waitForGoroutines gives the goroutine count a bounded while to fall to
// want (goroutines exit asynchronously) and returns the last count.
func waitForGoroutines(want int) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); got != want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	return got
}

// TestCloseLeavesNoTrace pins the dead-world contract: a body's deferred
// call runs at Close, and every engine entry point it reaches unwinds or
// does nothing — Sleep and Block unwind on the spot, Wake, Preempt and
// Kill report false, Spawn starts nothing — so the step cursor, the
// clock, every proc's state and the trace are what they were.
func TestCloseLeavesNoTrace(t *testing.T) {
	tr, err := trace.New(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithTracer(tr))
	var sleeper, blocked *Proc
	var deferRan, pastSleep bool
	sleeper = e.Spawn("sleeper", func(p *Proc) { p.Sleep(1000) })
	blocked = e.Spawn("blocked", func(p *Proc) { p.Block() })
	e.Spawn("holder", func(p *Proc) {
		defer func() {
			deferRan = true
			if !e.Closed() {
				t.Error("deferred call ran before Close")
			}
			if e.Wake(blocked) || e.Preempt(sleeper, 0) || e.Kill(sleeper) {
				t.Error("Wake, Preempt or Kill acted on a closed engine")
			}
			if q := e.Spawn("late", func(*Proc) { t.Error("a proc spawned on a closed engine ran") }); q.State() != StateDone {
				t.Errorf("proc spawned on a closed engine is %v, want done", q.State())
			}
			p.Sleep(5)
			pastSleep = true
		}()
		p.Sleep(10)
		p.Sleep(1000)
	})
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	traced := tr.Len()
	e.Close()
	if !deferRan || pastSleep {
		t.Fatalf("deferred call ran %v, continued past Sleep %v; want it run and unwound at the Sleep", deferRan, pastSleep)
	}
	if after := e.Snapshot(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("Close changed the engine:\nbefore %+v\nafter  %+v", before, after)
	}
	if tr.Len() != traced {
		t.Fatalf("Close traced %d events", tr.Len()-traced)
	}
	if e.Tracer() != nil {
		t.Fatal("a closed engine keeps its tracer attached")
	}
}

// TestCloseIsIdempotent: closing a closed engine, or one whose procs all
// finished, does nothing.
func TestCloseIsIdempotent(t *testing.T) {
	e := New()
	unwound := 0
	e.Spawn("a", func(p *Proc) {
		defer func() { unwound++ }()
		p.Block()
	})
	e.Spawn("b", func(p *Proc) { p.Sleep(5) })
	_ = e.Run() // deadlocks on a
	e.Close()
	e.Close()
	if unwound != 1 {
		t.Fatalf("body unwound %d times over two Closes, want 1", unwound)
	}
	done := New()
	done.Spawn("c", func(p *Proc) { p.Sleep(1) })
	if err := done.Run(); err != nil {
		t.Fatal(err)
	}
	done.Close()
	if !done.Closed() {
		t.Fatal("Close of a finished engine did not close it")
	}
}

// TestRunAfterCloseFailsLoudly: a closed world cannot be run again, and a
// Sleep reaching a closed engine from outside any proc names the cause.
func TestRunAfterCloseFailsLoudly(t *testing.T) {
	e := New()
	p := e.Spawn("a", func(p *Proc) { p.Sleep(1000) })
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	e.Close()
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Run", func() { _ = e.Run() }},
		{"RunUntil", func() { _ = e.RunUntil(2000) }},
		{"Sleep", func() { p.Sleep(1) }},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "closed") {
					t.Errorf("%s on a closed engine: recovered %v, want a panic naming the closed engine", c.name, r)
				}
			}()
			c.call()
		}()
	}
}
