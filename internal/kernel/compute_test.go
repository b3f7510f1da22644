package kernel

import (
	"fmt"
	"strings"
	"testing"

	"shootdown/internal/machine"
	"shootdown/internal/sim"
	"shootdown/internal/trace"
)

// refCompute is Compute as straight-line coroutine code: one Advance per
// 100 µs slice, each followed by a preemption check. Compute runs the
// slices between preemptions as one loop on the engine's stack and must
// deschedule the thread at the same virtual time and slice.
func refCompute(t *Thread, d sim.Time) {
	const chunk = 100_000
	for d > 0 {
		slice := min(d, chunk)
		t.ex.Advance(slice)
		d -= slice
		t.maybeResched()
	}
}

// runComputeWorld runs three threads on two CPUs under a 1.03 ms clock
// tick and a 2 ms quantum, with cost jitter and chaos ties, each
// computing through compute. It returns everything observable: the
// threads' log, every trace event (each "thread-run" span ends where a
// thread gives up its CPU), and the final counts.
func runComputeWorld(t *testing.T, compute func(*Thread, sim.Time)) (string, *Kernel) {
	t.Helper()
	tr, err := trace.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(Config{
		Machine:       machine.Options{NumCPUs: 2, MemFrames: 256, Costs: machine.DefaultCosts(), Seed: 5},
		TimerInterval: 1_030_000,
		Quantum:       2_000_000,
		ChaosSeed:     3,
		MaxTime:       1_000_000_000,
		Tracer:        trace.Stream(tr, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := k.NewTask("t")
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	for i := 0; i < 3; i++ {
		task.Spawn(fmt.Sprintf("w%d", i), func(th *Thread) {
			for j := 0; j < 3; j++ {
				if j > 0 {
					// A tick delivered outside Compute can leave the
					// quantum marked expired on entry: the first slice
					// still runs.
					th.ex.Advance(1_100_000)
					if th.needResched {
						logf("%s enters Compute marked at %d", th.name, th.Now())
					}
				}
				compute(th, sim.Time(2_450_000+310_000*i+j*1_000))
				logf("%s computed on cpu%d at %d", th.name, th.CPU(), th.Now())
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events() {
		log = append(log, fmt.Sprint(ev))
	}
	log = append(log, fmt.Sprintf("now %d steps %d ties %d", k.Eng.Now(), k.Eng.StepCount(), k.Eng.TieCount()))
	return strings.Join(log, "\n"), k
}

// TestComputePreemptsLikeSliceLoop checks that a computing thread whose
// quantum expires is descheduled at the same virtual time and slice as
// with the straight-line slice loop, including when it enters Compute
// already marked, with the same trace and step count; and that the
// slices between preemptions ran as loop steps on the engine's stack.
func TestComputePreemptsLikeSliceLoop(t *testing.T) {
	want, _ := runComputeWorld(t, refCompute)
	got, k := runComputeWorld(t, (*Thread).Compute)
	if got != want {
		a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("first difference at line %d:\nreference %s\nCompute   %s", i, a[i], b[i])
			}
		}
		t.Fatalf("reference run has %d lines, Compute run %d", len(a), len(b))
	}
	if n := strings.Count(got, "thread-run"); n < 2*(3+6) {
		t.Fatalf("%d thread-run events, want the threads preempted mid-Compute:\n%s", n, got)
	}
	if !strings.Contains(got, "enters Compute marked") {
		t.Fatalf("no thread entered Compute with its quantum marked expired:\n%s", got)
	}
	if k.Eng.LoopSteps() == 0 {
		t.Fatal("no slice ran on the engine's stack")
	}
}
