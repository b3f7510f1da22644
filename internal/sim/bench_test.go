package sim_test

import (
	"fmt"
	"testing"

	"shootdown/internal/sim"
)

// BenchmarkSimEngineSwitch measures one engine step of a lone proc. Its
// Sleep leaves it the next proc to run, so every step but the first
// continues in place, without a coroutine switch: this prices the engine's
// step bookkeeping. BenchmarkSimEngineHandoff prices a switched step.
func BenchmarkSimEngineSwitch(b *testing.B) {
	eng := sim.New()
	eng.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimEngineHandoff measures one engine step that is a real
// coroutine handoff: two procs take turns, one step each, while 16
// sleepers sit in the run queue of a chaos engine, the state a 16-CPU
// workload's engine runs in.
func BenchmarkSimEngineHandoff(b *testing.B) {
	eng := sim.New(sim.WithChaos(1))
	for i := 0; i < 16; i++ {
		eng.Spawn("sleeper", func(p *sim.Proc) { p.Sleep(1 << 50) })
	}
	if err := eng.RunUntil(0); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		eng.Spawn(fmt.Sprintf("alt%d", i), func(p *sim.Proc) {
			p.Sleep(sim.Time(i))
			for j := i; j < b.N; j += 2 {
				p.Sleep(2)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.RunUntil(1 << 49); err != nil {
		b.Fatal(err)
	}
}

// ticks is a Stepper that sleeps d, n times.
type ticks struct {
	n int
	d sim.Time
}

func (t *ticks) Step(sim.Time) (sim.Time, bool) {
	if t.n == 0 {
		return 0, false
	}
	t.n--
	return t.d, true
}

// BenchmarkSimEngineRepeat measures one loop step: the engine runs a
// Repeat loop's Step on its own stack, with no coroutine switch. As in
// BenchmarkSimEngineHandoff, two procs take turns among 16 chaos
// sleepers, here each in a Repeat loop, so every step is a loop step.
func BenchmarkSimEngineRepeat(b *testing.B) {
	eng := sim.New(sim.WithChaos(1))
	for i := 0; i < 16; i++ {
		eng.Spawn("sleeper", func(p *sim.Proc) { p.Sleep(1 << 50) })
	}
	if err := eng.RunUntil(0); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		eng.Spawn(fmt.Sprintf("loop%d", i), func(p *sim.Proc) {
			p.Sleep(sim.Time(i))
			p.Repeat(&ticks{n: (b.N - i + 1) / 2, d: 2})
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.RunUntil(1 << 49); err != nil {
		b.Fatal(err)
	}
}
