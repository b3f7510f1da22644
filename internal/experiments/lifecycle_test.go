package experiments

import (
	"testing"

	"shootdown/internal/kernel"
	"shootdown/internal/machine"
)

// TestRunWorldObservesFailedRun pins the Observe contract for worlds the
// experiments assemble from a raw kernel configuration: a run that fails
// is still observed and harvested, exactly once each, and then closed.
func TestRunWorldObservesFailedRun(t *testing.T) {
	calls := 0
	in := Instrument{Observe: func(*kernel.Kernel) { calls++ }}
	var harvested []*kernel.Kernel
	err := in.runWorld(kernel.Config{
		Machine: machine.Options{NumCPUs: 2, MemFrames: 2048, Seed: 7},
		MaxTime: 1_000_000,
	}, func(k *kernel.Kernel) error {
		task, err := k.NewTask("spin")
		if err != nil {
			return err
		}
		task.Spawn("spin", func(th *kernel.Thread) {
			for {
				th.Compute(100_000)
			}
		})
		return nil
	}, func(k *kernel.Kernel) {
		if k.Eng.Closed() {
			t.Error("harvest read a closed world")
		}
		harvested = append(harvested, k)
	})
	if err == nil {
		t.Fatal("a spinning world finished inside a 1 ms bound")
	}
	if calls != 1 {
		t.Fatalf("Observe called %d times on a failed run, want 1", calls)
	}
	if len(harvested) != 1 {
		t.Fatalf("harvest called %d times on a failed run, want 1", len(harvested))
	}
	if !harvested[0].Eng.Closed() {
		t.Fatal("runWorld left the harvested world open")
	}
}

// TestDirectExperimentsObserveEveryWorld checks that each experiment that
// assembles its own kernels observes each of them exactly once.
func TestDirectExperimentsObserveEveryWorld(t *testing.T) {
	cases := []struct {
		name   string
		worlds int
		run    func(*Args) (Result, error)
	}{
		{"highprio", 2, run(HighPriorityIPI)},
		{"idleopt", 2, run(IdleOpt)},
		{"threshold", 5, run(FlushThreshold)},
		{"queue", 5, run(QueueSize)},
		{"taggedtlb", 2, run(TaggedTLB)},
		{"pageout", 1, run(Pageout)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			if _, err := c.run(&Args{Seed: 7, In: Instrument{Observe: func(*kernel.Kernel) { calls++ }}}); err != nil {
				t.Fatal(err)
			}
			if calls != c.worlds {
				t.Fatalf("Observe called %d times, want once for each of %d worlds", calls, c.worlds)
			}
		})
	}
}

// TestScaleReusesFig2Sweep runs the fig2 and scale catalog entries through
// one *Args, as `shootdownsim all` does: the Figure 2 sweep (15 worlds per
// run) must happen once, so Observe sees it plus scale's five machine
// sizes per run.
func TestScaleReusesFig2Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 2 sweep")
	}
	const runs = 1
	worlds := 0
	a := &Args{Seed: 7, Runs: runs, In: Instrument{Observe: func(*kernel.Kernel) { worlds++ }}}
	for _, e := range Catalog {
		if e.Name == "fig2" || e.Name == "scale" {
			if _, err := e.Run(a); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	}
	if want := 15*runs + 5*runs; worlds != want {
		t.Fatalf("fig2 then scale observed %d worlds, want %d", worlds, want)
	}
}
