package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"shootdown/internal/trace"
)

// randLoop is a Stepper that stirs the world on each wake-up: it logs
// what it saw, and may preempt, wake, kill or spawn other procs, or stop
// the run, before asking for its next sleep. Every choice comes from the
// world's one rng, so two runs make the same choices exactly as long as
// they schedule the same way.
type randLoop struct {
	w     *randWorld
	p     *Proc
	steps int
}

func (s *randLoop) Step(slept Time) (Time, bool) {
	w := s.w
	w.logf("%s step %d slept %d at %d preempted %v", s.p.name, s.steps, slept, s.p.clock, s.p.preempted)
	w.stir(s.p)
	if s.steps == 0 {
		return 0, false
	}
	s.steps--
	return Time(5 * w.rng.Intn(3)), true
}

// randWorld is one random world: procs that sleep, block, stir each
// other and run loops, either through Repeat or through the literal
// Sleep loop Repeat stands for.
type randWorld struct {
	e      *Engine
	rng    *rand.Rand
	repeat bool
	procs  []*Proc
	log    []string
}

func (w *randWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf(format, args...))
}

// stir maybe acts on another proc, or on the run, from proc p.
func (w *randWorld) stir(p *Proc) {
	q := w.procs[w.rng.Intn(len(w.procs))]
	switch w.rng.Intn(12) {
	case 0:
		w.e.Preempt(q, w.e.Now()+Time(5*w.rng.Intn(3)))
	case 1:
		w.e.Wake(q)
	case 2:
		if q != p {
			w.e.Kill(q)
		}
	case 3:
		if len(w.procs) < 40 {
			w.spawn()
		}
	case 4:
		if w.rng.Intn(4) == 0 {
			w.e.Stop()
		}
	}
}

func (w *randWorld) spawn() {
	w.procs = append(w.procs, w.e.Spawn(fmt.Sprintf("p%d", len(w.procs)), w.body))
}

func (w *randWorld) body(p *Proc) {
	for r := w.rng.Intn(8); r > 0; r-- {
		switch w.rng.Intn(6) {
		case 0:
			p.Block()
		case 1:
			w.stir(p)
		case 2, 3:
			p.Sleep(Time(5 * w.rng.Intn(3)))
		default:
			s := &randLoop{w: w, p: p, steps: w.rng.Intn(12)}
			if w.repeat {
				p.Repeat(s)
			} else {
				for d, more := s.Step(0); more; d, more = s.Step(p.Sleep(d)) {
				}
			}
		}
		w.logf("%s op done at %d", p.name, p.clock)
	}
}

// runRandWorld builds the world of the given seed and runs it to its
// end in random step-bounded slices, restarting after each Stop, and
// returns everything it observed.
func runRandWorld(t *testing.T, seed int64, repeat bool) (w *randWorld, result string) {
	rng := rand.New(rand.NewSource(seed))
	tr, err := trace.New(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithTracer(tr)}
	if rng.Intn(4) > 0 {
		opts = append(opts, WithChaos(seed))
	}
	if rng.Intn(4) == 0 {
		opts = append(opts, WithMaxTime(Time(20+rng.Intn(100))))
	}
	w = &randWorld{e: New(opts...), rng: rng, repeat: repeat}
	for i := 2 + rng.Intn(12); i > 0; i-- {
		w.spawn()
	}
	var runs []string
	for i := 0; i < 1000; i++ {
		err := w.e.RunUntilStep(w.e.StepCount() + uint64(1+rng.Intn(20)))
		runs = append(runs, fmt.Sprintf("step %d now %d stopped %v err %v", w.e.StepCount(), w.e.Now(), w.e.Stopped(), err))
		if err != nil || (!w.e.Stopped() && len(w.e.runq) == 0) {
			break
		}
	}
	for _, p := range w.e.procs {
		runs = append(runs, fmt.Sprintf("%s %v clock %d", p.name, p.state, p.clock))
	}
	for _, ev := range tr.Events() {
		runs = append(runs, fmt.Sprint(ev))
	}
	return w, strings.Join(append(w.log, runs...), "\n")
}

// TestRepeatMatchesSleepLoop runs random worlds twice, their loops once
// through Repeat and once as the literal Sleep loop, with Preempt, Kill,
// Wake, Spawn and Stop from loop steps and bodies, chaos ties, step-
// bounded pauses and a virtual-time bound. Every observation must match:
// the log, the trace, each proc's end state and clock, and the step, tie,
// draw and in-place counts. Only the steps the literal loop switched for
// may differ in kind: Repeat serves some of them on the engine's stack.
func TestRepeatMatchesSleepLoop(t *testing.T) {
	var loopSteps, ties uint64
	for seed := int64(1); seed <= 300; seed++ {
		lw, literal := runRandWorld(t, seed, false)
		rw, repeated := runRandWorld(t, seed, true)
		if literal != repeated {
			a, b := strings.Split(literal, "\n"), strings.Split(repeated, "\n")
			for i := range min(len(a), len(b)) {
				if a[i] != b[i] {
					t.Fatalf("seed %d: first difference at line %d:\nliteral %s\nrepeat  %s", seed, i, a[i], b[i])
				}
			}
			t.Fatalf("seed %d: literal run has %d lines, Repeat run %d", seed, len(a), len(b))
		}
		le, re := lw.e, rw.e
		if le.step != re.step || le.tieSeq != re.tieSeq || le.chaosDraws != re.chaosDraws || le.inlineSteps != re.inlineSteps {
			t.Fatalf("seed %d: steps/ties/draws/inline %d/%d/%d/%d literal, %d/%d/%d/%d Repeat", seed,
				le.step, le.tieSeq, le.chaosDraws, le.inlineSteps, re.step, re.tieSeq, re.chaosDraws, re.inlineSteps)
		}
		if le.loopSteps != 0 {
			t.Fatalf("seed %d: the literal loop made %d loop steps", seed, le.loopSteps)
		}
		loopSteps += re.loopSteps
		ties += re.tieSeq
	}
	if loopSteps < 1000 || ties < 1000 {
		t.Fatalf("%d loop steps and %d ties over all worlds, want the worlds to exercise both", loopSteps, ties)
	}
}

// countdown is a Stepper that sleeps d, n times, then runs fn (if set)
// on the wake-up that ends it.
type countdown struct {
	n  int
	d  Time
	fn func()
}

func (c *countdown) Step(Time) (Time, bool) {
	if c.n == 0 {
		if c.fn != nil {
			c.fn()
		}
		return 0, false
	}
	c.n--
	return c.d, true
}

// TestRepeatStepPanicFailsTheProc checks that a panic in Step, raised on
// the engine's stack or on the proc's own, ends the proc with an error
// naming it and the panic, unwinding its body as a panic would.
func TestRepeatStepPanicFailsTheProc(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int // sleeps before the panicking wake-up
		peer bool
	}{
		{"first-step", 0, true},
		{"engine-stack", 3, true},
		{"in-place", 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			if tc.peer {
				// A peer due at every wake-up makes the looper yield, so
				// its later steps run on the engine's stack.
				e.Spawn("peer", func(p *Proc) {
					for i := 0; i < 10; i++ {
						p.Sleep(10)
					}
				})
			}
			var unwound bool
			e.Spawn("looper", func(p *Proc) {
				defer func() { unwound = true }()
				p.Repeat(&countdown{n: tc.n, d: 10, fn: func() { panic("kaboom") }})
				t.Error("Repeat returned after its Step panicked")
			})
			err := e.Run()
			if err == nil || !strings.Contains(err.Error(), `proc "looper" panicked: kaboom`) || !strings.Contains(err.Error(), "countdown") {
				t.Fatalf("err = %v, want the looper's panic with the Step's stack", err)
			}
			if !unwound {
				t.Error("the looper's body did not unwind")
			}
			if e.Now() != Time(10*tc.n) {
				t.Errorf("Now = %d, want %d (the panic's time)", e.Now(), 10*tc.n)
			}
			if tc.peer && tc.n > 0 && e.LoopSteps() == 0 {
				t.Error("no step ran on the engine's stack")
			}
		})
	}
}

// TestSleepOrBlockInsideStepPanics checks the guard: Step computes the
// next sleep, so a Sleep or Block from inside it fails the proc with a
// message saying so, whichever stack Step runs on.
func TestSleepOrBlockInsideStepPanics(t *testing.T) {
	for _, op := range []string{"Sleep", "Block", "Repeat"} {
		for _, n := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s-after-%d", op, n), func(t *testing.T) {
				e := New()
				e.Spawn("peer", func(p *Proc) {
					for i := 0; i < 10; i++ {
						p.Sleep(10)
					}
				})
				e.Spawn("looper", func(p *Proc) {
					p.Repeat(&countdown{n: n, d: 10, fn: func() {
						switch op {
						case "Sleep":
							p.Sleep(1)
						case "Block":
							p.Block()
						default:
							p.Repeat(&countdown{})
						}
					}})
				})
				err := e.Run()
				want := fmt.Sprintf(`sim: %s called from inside a Stepper's Step on proc "looper"`, op)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want %q", err, want)
				}
			})
		}
	}
}

// TestRepeatAfterPanicRecovered checks that a Step panic leaves the
// engine usable for the procs that remain, with no Step in progress.
func TestRepeatAfterPanicRecovered(t *testing.T) {
	e := New()
	e.Spawn("peer", func(p *Proc) {
		p.Sleep(5)
		p.Repeat(&countdown{n: 3, d: 10})
	})
	e.Spawn("looper", func(p *Proc) {
		p.Repeat(&countdown{n: 1, d: 10, fn: func() { panic(errors.New("boom")) }})
	})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
	if e.stepping {
		t.Fatal("the engine still marks a Step in progress")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.procs[0].State(); got != StateDone || e.Now() != 35 {
		t.Fatalf("peer %v at %d, want done at 35", got, e.Now())
	}
}

// TestRepeatLoopStepsCounted pins the kinds of a looping proc's steps
// among 16 chaos sleepers: a peer due before each of its wake-ups makes
// every one a loop step but the last, which ends the loop and switches.
func TestRepeatLoopStepsCounted(t *testing.T) {
	e := queuedEngine(t, 16, true)
	base := e.StepCount()
	e.Spawn("peer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(3)
		}
	})
	e.Spawn("looper", func(p *Proc) { p.Repeat(&countdown{n: 50, d: 5}) })
	if err := e.RunUntil(1 << 40); err != nil {
		t.Fatal(err)
	}
	if got := e.LoopSteps(); got != 49 {
		t.Fatalf("%d loop steps, want 49: every wake-up of the looper but the last", got)
	}
	if e.StepCount()-base != 2+100+50 {
		t.Fatalf("%d steps, want 152", e.StepCount()-base)
	}
}
