package experiments

import (
	"testing"

	"shootdown/internal/kernel"
	"shootdown/internal/machine"
)

// TestRunWorldObservesFailedRun pins the Observe contract for worlds the
// experiments assemble from a raw kernel configuration: a run that fails
// is still observed, exactly once.
func TestRunWorldObservesFailedRun(t *testing.T) {
	calls := 0
	in := Instrument{Observe: func(*kernel.Kernel) { calls++ }}
	k, err := in.runWorld(kernel.Config{
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
	})
	if err == nil {
		t.Fatal("a spinning world finished inside a 1 ms bound")
	}
	if k == nil {
		t.Fatal("runWorld returned no kernel to harvest")
	}
	if calls != 1 {
		t.Fatalf("Observe called %d times on a failed run, want 1", calls)
	}
}

// TestDirectExperimentsObserveEveryWorld checks that each experiment that
// assembles its own kernels observes each of them exactly once.
func TestDirectExperimentsObserveEveryWorld(t *testing.T) {
	cases := []struct {
		name   string
		worlds int
		run    func(Instrument) error
	}{
		{"highprio", 2, func(in Instrument) error { _, err := HighPriorityIPI(7, in); return err }},
		{"idleopt", 2, func(in Instrument) error { _, err := IdleOpt(7, in); return err }},
		{"threshold", 5, func(in Instrument) error { _, err := FlushThreshold(7, 16, in); return err }},
		{"queue", 5, func(in Instrument) error { _, err := QueueSize(7, in); return err }},
		{"taggedtlb", 2, func(in Instrument) error { _, err := TaggedTLB(7, in); return err }},
		{"pageout", 1, func(in Instrument) error { _, err := Pageout(7, in); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			if err := c.run(Instrument{Observe: func(*kernel.Kernel) { calls++ }}); err != nil {
				t.Fatal(err)
			}
			if calls != c.worlds {
				t.Fatalf("Observe called %d times, want once for each of %d worlds", calls, c.worlds)
			}
		})
	}
}
