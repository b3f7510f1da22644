package workload_test

import (
	"runtime/debug"
	"testing"

	"shootdown/internal/kernel"
	"shootdown/internal/workload"
)

const benchSeed = 42

// BenchmarkSingleShootdown measures one 4-processor shootdown end to end
// (the finest-grained repeatable unit).
func BenchmarkSingleShootdown(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		r, err := workload.RunTester(workload.TesterConfig{
			Children: 4, App: workload.AppConfig{NCPUs: 8, Seed: benchSeed + int64(i), NoTimer: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		total += r.ShootUS
	}
	b.ReportMetric(total/float64(b.N), "virtual-µs/shootdown")
}

// testerWorld runs a NoTimer tester world of cpus CPUs and cpus-1
// children at seed and returns its engine's step counts: all steps, and
// how many began in place and how many were loop steps.
func testerWorld(tb testing.TB, seed int64, cpus int) (steps, inline, loop uint64) {
	tb.Helper()
	_, err := workload.RunTester(workload.TesterConfig{Children: cpus - 1, App: workload.AppConfig{
		NCPUs: cpus, Seed: seed, NoTimer: true,
		Observe: func(k *kernel.Kernel) {
			steps, inline, loop = k.Eng.StepCount(), k.Eng.InlineSteps(), k.Eng.LoopSteps()
		},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return steps, inline, loop
}

// TestTesterStepsStayOffCoroutines checks that the tester's children
// run their counter loops on the engine's stack: fewer than one step in
// ten of a seed-1, 15-child world (a Figure 2 sample's) switches to a
// coroutine. With each child's read, write and think as straight-line
// coroutine code, 47% did.
func TestTesterStepsStayOffCoroutines(t *testing.T) {
	steps, inline, loop := testerWorld(t, 1, 16)
	if switched := steps - inline - loop; switched*10 >= steps {
		t.Fatalf("%d of %d steps switched (%d in place, %d loop steps), want under 10%%", switched, steps, inline, loop)
	}
}

// benchTesterWorld runs testerWorld b.N times and reports the host time
// per engine step and the share of steps that switched to a coroutine,
// the two numbers that say where a tester world's time goes.
func benchTesterWorld(b *testing.B, seed int64, cpus int) {
	b.ReportAllocs()
	var steps, switched uint64
	for i := 0; i < b.N; i++ {
		n, inline, loop := testerWorld(b, seed, cpus)
		steps += n
		switched += n - inline - loop
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	b.ReportMetric(100*float64(switched)/float64(steps), "switched-%")
}

// BenchmarkTesterWorld runs the seed-1, 16-CPU, 15-child world of a
// Figure 2 sample.
func BenchmarkTesterWorld(b *testing.B) { benchTesterWorld(b, 1, 16) }

// BenchmarkTesterWorld256 runs the seed-7 world with 256 CPUs and 255
// children (ROADMAP item 5's largest world), where the run queue holds
// sixteen times a Figure 2 sample's procs.
func BenchmarkTesterWorld256(b *testing.B) { benchTesterWorld(b, 7, 256) }

// benchSnapStep is the event boundary the snapshot benchmarks pause at.
const benchSnapStep = 1000

// pausedWorld builds a churn world and pauses it mid-run at an event
// boundary, ready to snapshot.
func pausedWorld(tb testing.TB, seed int64) *kernel.Kernel {
	tb.Helper()
	k, err := workload.StartChurn(workload.AppConfig{
		NCPUs: 4, Seed: seed, Scale: 0.5, Oracle: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := k.RunToStep(benchSnapStep); err != nil {
		tb.Fatal(err)
	}
	if k.Eng.Stopped() || k.Eng.StepCount() < benchSnapStep {
		tb.Fatalf("world ended before step %d", benchSnapStep)
	}
	return k
}

// BenchmarkSnapshotCapture measures one whole-simulation snapshot of a
// paused mid-run world: every layer serialized and the digest computed.
func BenchmarkSnapshotCapture(b *testing.B) {
	k := pausedWorld(b, benchSeed)
	b.ResetTimer()
	var layers int
	for i := 0; i < b.N; i++ {
		s, err := k.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		layers = len(s.Layers)
	}
	b.ReportMetric(float64(layers), "layers")
}

// BenchmarkSnapshotRestore measures replay-based restore end to end:
// rebuild a fresh world from the same configuration, replay it to the
// snapshot step, and verify the digest matches — the unit of work a
// time-travel restore (experiments.TimeTravel) costs.
func BenchmarkSnapshotRestore(b *testing.B) {
	want, err := pausedWorld(b, benchSeed).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := pausedWorld(b, benchSeed).Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if s.Digest != want.Digest {
			b.Fatalf("restore diverged: %s vs %s", s.Digest, want.Digest)
		}
	}
}

// Allocation ceilings of whole worlds, each the largest count over seeds
// 1-10 on go1.24.0, linux/amd64, so that one more allocation per world on
// the measured path fails the test. A seed's count is the mean of five
// runs with the collector off, rounded down: a collection empties
// sync.Pools, and a map's growth under deletes depends on its random hash
// seed, so a single run can read an allocation or two high. When a change
// removes allocations, lower the ceilings the same way; raising one is a
// regression to justify in CHANGES.md.
const (
	testerAllocCeiling   = 399 // an 8-CPU, 4-child RunTester world
	snapshotAllocCeiling = 114 // Kernel.Snapshot of a pausedWorld
	restoreAllocCeiling  = 579 // a pausedWorld rebuilt and snapshotted
)

// worldAllocs returns f's allocations per run, averaged over five runs
// with the collector off.
func worldAllocs(t *testing.T, f func() error) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(5, func() {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWorldAllocationCeilings(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		k := pausedWorld(t, seed)
		for _, c := range []struct {
			name    string
			ceiling float64
			run     func() error
		}{
			{"RunTester", testerAllocCeiling, func() error {
				_, err := workload.RunTester(workload.TesterConfig{Children: 4, App: workload.AppConfig{NCPUs: 8, Seed: seed, NoTimer: true}})
				return err
			}},
			{"Snapshot", snapshotAllocCeiling, func() error {
				_, err := k.Snapshot()
				return err
			}},
			{"restore", restoreAllocCeiling, func() error {
				_, err := pausedWorld(t, seed).Snapshot()
				return err
			}},
		} {
			n := worldAllocs(t, c.run)
			if n > c.ceiling {
				t.Errorf("seed %d: %s allocates %v times, over its ceiling of %v", seed, c.name, n, c.ceiling)
			}
		}
	}
}
