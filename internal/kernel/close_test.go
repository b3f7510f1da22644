package kernel

import (
	"testing"

	"shootdown/internal/machine"
	"shootdown/internal/trace"
)

// TestCloseLeavesHeldMutexHeld pauses a world where one thread holds a
// kernel mutex across a Compute, its Unlock deferred, while another
// thread waits for it, and checks that Close unwinds the holder without
// a trace: the deferred Unlock charges nothing (the costs are jittered,
// so a charge would draw from the machine's RNG), releases nothing and
// readies no waiter, so the world's digest and the trace ring are what
// they were.
func TestCloseLeavesHeldMutexHeld(t *testing.T) {
	tr, err := trace.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(Config{
		Machine: machine.Options{NumCPUs: 2, MemFrames: 256, Costs: machine.DefaultCosts(), Seed: 5},
		Tracer:  trace.Stream(tr, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := k.NewTask("t")
	if err != nil {
		t.Fatal(err)
	}
	var mu Mutex
	holder := task.Spawn("holder", func(th *Thread) {
		th.Lock(&mu)
		defer th.Unlock(&mu)
		th.Compute(5_000_000)
	})
	task.Spawn("waiter", func(th *Thread) {
		th.Compute(100_000)
		th.Lock(&mu)
		th.Unlock(&mu)
	})
	for n := uint64(1); len(mu.waiters) == 0; n++ {
		if paused, err := k.RunTo(n); !paused {
			t.Fatalf("run ended (err %v) before the waiter blocked on the mutex", err)
		}
	}
	before, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	traced := tr.Len()
	k.Close()
	after, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if before.Digest != after.Digest {
		t.Fatalf("Close changed the world at step %d: digest %s -> %s", before.Step, before.Digest, after.Digest)
	}
	if tr.Len() != traced {
		t.Fatalf("Close traced %d events", tr.Len()-traced)
	}
	if mu.holder != holder || len(mu.waiters) != 1 {
		t.Fatalf("after Close the mutex is held by %v with %d waiters, want the holder and 1", mu.holder, len(mu.waiters))
	}
}
