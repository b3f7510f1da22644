package workload

import (
	"bytes"
	"runtime"
	"testing"

	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/trace"
)

// closeCheck closes k, a world paused mid-run, and fails the test unless
// Close left no trace: the whole-simulation digest and the trace ring's
// length must be what they were before it.
func closeCheck(t *testing.T, k *kernel.Kernel, tr *trace.Tracer) {
	t.Helper()
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
		t.Fatalf("Close traced %d events at step %d", tr.Len()-traced, before.Step)
	}
}

// TestCloseUnwindsSuspendedDeferredCalls pauses worlds where a proc is
// suspended inside a simulated call that defers work, and checks that
// closing the world unwinds it without a trace: a Parthenon worker
// holding the workpile mutex inside its deferred th.Unlock (it releases
// p.mu only after Unlock's instruction charge), and an Agora processor
// draining its shootdown action queue, whose deferred reset empties the
// queue.
func TestCloseUnwindsSuspendedDeferredCalls(t *testing.T) {
	for _, c := range []struct {
		name  string
		rig   rig
		frame string
	}{
		{"parthenon", rigParthenon, "kernel.(*Thread).Unlock("},
		{"agora", rigAgora, "core.(*Shootdown).processActions("},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, err := trace.New(1 << 16)
			if err != nil {
				t.Fatal(err)
			}
			older := goroutines()
			k, err := start(AppConfig{NCPUs: 8, Seed: 3, Scale: 0.5, Tracer: tr}, c.rig)
			if err != nil {
				t.Fatal(err)
			}
			for n := uint64(1); !inside(older, c.frame); n++ {
				if paused, err := k.RunTo(n); !paused {
					t.Fatalf("run ended (err %v) at step %d before a proc was suspended in %s", err, k.Eng.StepCount(), c.frame)
				}
			}
			closeCheck(t, k, tr)
			if inside(older, c.frame) {
				t.Fatalf("a proc is still suspended in %s after Close", c.frame)
			}
		})
	}
}

// stackBuf is stacks' buffer, kept between calls: the tests above take
// thousands of dumps.
var stackBuf = make([]byte, 1<<20)

// stacks returns every goroutine's stack trace, one per element, valid
// until the next call.
func stacks() [][]byte {
	for {
		n := runtime.Stack(stackBuf, true)
		if n < len(stackBuf) {
			return bytes.Split(stackBuf[:n], []byte("\n\n"))
		}
		stackBuf = make([]byte, 2*len(stackBuf))
	}
}

// goroutines returns the ids of the goroutines alive now.
func goroutines() map[string]bool {
	ids := map[string]bool{}
	for _, s := range stacks() {
		ids[string(bytes.Fields(s)[1])] = true // "goroutine <id> [<status>]:"
	}
	return ids
}

// inside reports whether a goroutine not in older — a parked coroutine
// of a proc started since — has frame, a function as runtime.Stack
// prints it, on its stack.
func inside(older map[string]bool, frame string) bool {
	for _, s := range stacks() {
		if !older[string(bytes.Fields(s)[1])] && bytes.Contains(s, []byte(frame)) {
			return true
		}
	}
	return false
}

// TestClosedWorldsKeepTheirDigest pauses each workload at 41 steps, with
// fail-stopped threads in the churn world, and checks that Close leaves
// each paused world's digest and trace untouched. So many pause points
// catch procs suspended inside every deferred simulated call: a lock
// release, pmap.Enter's strategy finish, an action-queue drain.
func TestClosedWorldsKeepTheirDigest(t *testing.T) {
	hotplug, err := fault.ParseSpec("failstop=0.9,failby=8ms,revive=1,reviveafter=4ms")
	if err != nil {
		t.Fatal(err)
	}
	hotplug.Seed = 11
	tester := func(k *kernel.Kernel, _ AppConfig) error {
		var res TesterResult
		return rigTester(k, TesterConfig{Children: 4}, &res)
	}
	for _, c := range []struct {
		name string
		cfg  AppConfig
		rig  rig
	}{
		{"tester", AppConfig{NoTimer: true}, tester},
		{"machbuild", AppConfig{}, rigMachBuild},
		{"parthenon", AppConfig{}, rigParthenon},
		{"agora", AppConfig{}, rigAgora},
		{"camelot", AppConfig{}, rigCamelot},
		{"churn", AppConfig{Faults: &hotplug, Oracle: true}, rigChurn},
		{"dma", dmaConfig(AppConfig{NumDevices: 2, Scale: 1}), rigDMA},
	} {
		for step := uint64(50); step < 4_000; step += 97 {
			tr, err := trace.New(1 << 16)
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.cfg
			cfg.NCPUs, cfg.Seed, cfg.Tracer = 8, 5, tr
			if cfg.Scale == 0 {
				cfg.Scale = 0.25
			}
			k, err := start(cfg, c.rig)
			if err != nil {
				t.Fatal(err)
			}
			if paused, err := k.RunTo(step); !paused {
				t.Fatalf("%s ended before step %d: %v", c.name, step, err)
			}
			closeCheck(t, k, tr)
		}
	}
}
