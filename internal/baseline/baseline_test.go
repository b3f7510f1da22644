package baseline_test

import (
	"strings"
	"testing"

	"shootdown/internal/baseline"
	"shootdown/internal/core"
	"shootdown/internal/machine"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
	"shootdown/internal/workload"
)

func run(t *testing.T, cfg workload.TesterConfig) workload.TesterResult {
	t.Helper()
	res, err := workload.RunTester(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNoneStrategyShowsTheProblem(t *testing.T) {
	res := run(t, workload.TesterConfig{
		Children: 4,
		App: workload.AppConfig{
			NCPUs: 6, Seed: 3, NoTimer: true,
			Strategy: func(*machine.Machine) (core.Strategy, error) { return baseline.NewNone(), nil },
		},
	})
	if !res.Inconsistent {
		t.Fatal("without any consistency mechanism the tester must observe stale writes")
	}
}

func TestHardwareRemoteMaintainsConsistency(t *testing.T) {
	res := run(t, workload.TesterConfig{
		Children: 4,
		App: workload.AppConfig{
			NCPUs: 6, Seed: 3, NoTimer: true,
			RemoteInvalidate: true,
			TLB:              tlb.Config{Writeback: tlb.WritebackInterlocked},
			Strategy: func(m *machine.Machine) (core.Strategy, error) {
				return baseline.NewHardwareRemote(m)
			},
		},
	})
	if res.Inconsistent {
		t.Fatal("hardware remote invalidation failed to maintain consistency")
	}
	if res.ProtectUS <= 0 {
		t.Fatal("no operation latency measured")
	}
}

func TestHardwareRemoteValidation(t *testing.T) {
	eng := sim.New()
	m := machine.New(eng, machine.Options{NumCPUs: 2})
	if _, err := baseline.NewHardwareRemote(m); err == nil {
		t.Fatal("must refuse a machine without the remote-invalidation port")
	}
	m2 := machine.New(sim.New(), machine.Options{NumCPUs: 2, RemoteInvalidate: true})
	if _, err := baseline.NewHardwareRemote(m2); err == nil || !strings.Contains(err.Error(), "writeback") {
		t.Fatalf("must refuse blind writeback, got %v", err)
	}
	m3 := machine.New(sim.New(), machine.Options{
		NumCPUs: 2, RemoteInvalidate: true,
		TLB: tlb.Config{Writeback: tlb.WritebackNone},
	})
	if _, err := baseline.NewHardwareRemote(m3); err != nil {
		t.Fatal(err)
	}
}

func TestPostponedIPIMaintainsConsistency(t *testing.T) {
	res := run(t, workload.TesterConfig{
		Children: 4,
		App: workload.AppConfig{
			NCPUs: 6, Seed: 3, NoTimer: true,
			TLB: tlb.Config{Writeback: tlb.WritebackNone},
			Strategy: func(m *machine.Machine) (core.Strategy, error) {
				return baseline.NewPostponedIPI(m)
			},
		},
	})
	if res.Inconsistent {
		t.Fatal("postponed-IPI strategy failed to maintain consistency")
	}
}

func TestPostponedIPIValidation(t *testing.T) {
	m := machine.New(sim.New(), machine.Options{NumCPUs: 2}) // blind writeback
	if _, err := baseline.NewPostponedIPI(m); err == nil {
		t.Fatal("must refuse blind-writeback TLBs")
	}
}

func TestTimerFlushMaintainsConsistency(t *testing.T) {
	res := run(t, workload.TesterConfig{
		Children: 4,
		App: workload.AppConfig{
			NCPUs: 6, Seed: 3, // the timer stays on: the strategy lives off the clock interrupt
			TLB: tlb.Config{Writeback: tlb.WritebackInterlocked},
			Strategy: func(m *machine.Machine) (core.Strategy, error) {
				return baseline.NewTimerFlush(m)
			},
		},
	})
	if res.Inconsistent {
		t.Fatal("timer-flush strategy failed to maintain consistency")
	}
	// §3: the delayed-use technique is expensive — the operation waits up
	// to a timer period (10 ms here), orders of magnitude above the
	// shootdown's sub-millisecond latency.
	if res.ProtectUS < 2_000 {
		t.Fatalf("timer-flush protect latency %.0f µs suspiciously low; expected multi-ms delays", res.ProtectUS)
	}
}

func TestTimerFlushValidation(t *testing.T) {
	m := machine.New(sim.New(), machine.Options{NumCPUs: 2})
	if _, err := baseline.NewTimerFlush(m); err == nil {
		t.Fatal("must refuse blind-writeback TLBs")
	}
}

// TestStrategyLatencyOrdering compares the vm_protect latency across
// mechanisms: hardware remote invalidation beats the software shootdown,
// and both beat timer-flushing by a wide margin (§9's cost/benefit frame).
func TestStrategyLatencyOrdering(t *testing.T) {
	shoot := run(t, workload.TesterConfig{Children: 6, App: workload.AppConfig{NCPUs: 8, Seed: 5, NoTimer: true}})
	hw := run(t, workload.TesterConfig{
		Children: 6,
		App: workload.AppConfig{
			NCPUs: 8, Seed: 5, NoTimer: true,
			RemoteInvalidate: true,
			TLB:              tlb.Config{Writeback: tlb.WritebackInterlocked},
			Strategy: func(m *machine.Machine) (core.Strategy, error) {
				return baseline.NewHardwareRemote(m)
			},
		},
	})
	timer := run(t, workload.TesterConfig{
		Children: 6,
		App: workload.AppConfig{
			NCPUs: 8, Seed: 5,
			TLB: tlb.Config{Writeback: tlb.WritebackInterlocked},
			Strategy: func(m *machine.Machine) (core.Strategy, error) {
				return baseline.NewTimerFlush(m)
			},
		},
	})
	t.Logf("protect latency: hw-remote=%.0fµs shootdown=%.0fµs timer-flush=%.0fµs",
		hw.ProtectUS, shoot.ProtectUS, timer.ProtectUS)
	if !(hw.ProtectUS < shoot.ProtectUS && shoot.ProtectUS < timer.ProtectUS) {
		t.Fatalf("latency ordering violated: hw %.0f, shootdown %.0f, timer %.0f",
			hw.ProtectUS, shoot.ProtectUS, timer.ProtectUS)
	}
	for _, r := range []workload.TesterResult{shoot, hw, timer} {
		if r.Inconsistent {
			t.Fatal("consistency violated in comparison run")
		}
	}
}

func TestStrategyNames(t *testing.T) {
	if baseline.NewNone().Name() != "none" {
		t.Fatal("None name")
	}
	m := machine.New(sim.New(), machine.Options{
		NumCPUs: 2, RemoteInvalidate: true, TLB: tlb.Config{Writeback: tlb.WritebackNone},
	})
	hw, err := baseline.NewHardwareRemote(m)
	if err != nil {
		t.Fatal(err)
	}
	if hw.Name() != "hardware-remote" {
		t.Fatal("HardwareRemote name")
	}
	pp, err := baseline.NewPostponedIPI(m)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Name() != "postponed-ipi" {
		t.Fatal("PostponedIPI name")
	}
	tf, err := baseline.NewTimerFlush(m)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Name() != "timer-flush" {
		t.Fatal("TimerFlush name")
	}
}
