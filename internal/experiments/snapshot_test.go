package experiments

import (
	"bytes"
	"testing"

	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/profile"
	"shootdown/internal/trace"
	"shootdown/internal/workload"
)

// snapCapture is everything a run leaves behind that the snapshot/restore
// guarantee covers: the full Chrome trace, the profiler's per-shootdown
// DAG export, the oracle's shadow state, and the final whole-simulation
// snapshot digest.
type snapCapture struct {
	verdict   string
	trace     []byte
	dags      []byte
	oracle    []byte
	finalDig  string
	pausedDig string // digest at the pause boundary ("" for straight runs)
}

// captureRun executes one campaign cell — wl selects the churn or the
// device-bearing DMA-streaming workload — and captures its artifacts.
// pauseAt 0 runs straight through; otherwise the run pauses at that event
// step, takes a whole-simulation snapshot, and continues.
func captureRun(t *testing.T, wl, spec string, seed int64, pauseAt uint64) snapCapture {
	t.Helper()
	fc, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	fc.Seed = seed + 257
	tr, err := trace.New(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New()
	cfg := workload.AppConfig{
		NCPUs: 4, Seed: seed, Scale: 0.5,
		ShootdownOptions: campaignWatchdog,
		Oracle:           true,
		MaxVirtualTime:   30_000_000_000,
		Faults:           &fc,
		Tracer:           tr,
		Profiler:         p,
	}
	var k *kernel.Kernel
	switch wl {
	case "dma":
		cfg.NumDevices = 2
		k, err = workload.StartDMA(cfg)
	default:
		k, err = workload.StartChurn(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	var cap snapCapture
	var runErr error
	if pauseAt == 0 {
		runErr = k.Run()
	} else {
		if err := k.RunToStep(pauseAt); err != nil {
			t.Fatalf("prefix died at pause step %d: %v", pauseAt, k.Finish(err))
		}
		if k.Eng.Stopped() || k.Eng.StepCount() < pauseAt {
			t.Fatalf("run ended before pause step %d (pick a smaller step)", pauseAt)
		}
		s, err := k.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		cap.pausedDig = s.Digest
		runErr = k.Run()
	}
	cap.verdict = kernel.Verdict(runErr)
	var tb, pb bytes.Buffer
	if err := tr.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteShootdowns(&pb); err != nil {
		t.Fatal(err)
	}
	cap.trace, cap.dags = tb.Bytes(), pb.Bytes()
	final, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cap.finalDig = final.Digest
	cap.oracle = append([]byte(nil), final.Layer("oracle")...)
	return cap
}

// TestSnapshotRestoreContinueByteIdentical is the tentpole pin, across
// the chaos campaign scenarios and the device-chaos ladder's two deepest
// scenarios: pausing a run at an event boundary, snapshotting it, and
// continuing produces byte-identical traces, profile exports, oracle
// state, and final world state versus an uninterrupted run — and a second
// world replayed to the pause boundary lands on the same snapshot digest
// (replay-based restore) and the same continuation.
func TestSnapshotRestoreContinueByteIdentical(t *testing.T) {
	const pauseAt = 1500
	var cases []struct{ name, wl, spec string }
	for _, sc := range chaosScenarios {
		cases = append(cases, struct{ name, wl, spec string }{sc.Name, "churn", sc.Spec})
	}
	// Device-bearing runs must honor the same guarantee: a quarantine
	// escalation and a cross-layer CPU-fail-during-device-stall window
	// both ride the snapshot.
	for _, sc := range deviceScenarios {
		if sc.Name == "wedge" || sc.Name == "cpufail+devstall" {
			cases = append(cases, struct{ name, wl, spec string }{"dev-" + sc.Name, "dma", sc.Spec})
		}
	}
	for _, sc := range cases {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			straight := captureRun(t, sc.wl, sc.spec, 7, 0)
			paused := captureRun(t, sc.wl, sc.spec, 7, pauseAt)
			restored := captureRun(t, sc.wl, sc.spec, 7, pauseAt)

			if straight.verdict != paused.verdict {
				t.Fatalf("verdicts diverge: straight %s, paused %s", straight.verdict, paused.verdict)
			}
			if !bytes.Equal(straight.trace, paused.trace) {
				t.Fatalf("Chrome traces diverge (%d vs %d bytes)", len(straight.trace), len(paused.trace))
			}
			if !bytes.Equal(straight.dags, paused.dags) {
				t.Fatalf("shootdown DAG exports diverge (%d vs %d bytes)", len(straight.dags), len(paused.dags))
			}
			if !bytes.Equal(straight.oracle, paused.oracle) {
				t.Fatalf("oracle state diverges:\n  straight: %s\n  paused:   %s", straight.oracle, paused.oracle)
			}
			if straight.finalDig != paused.finalDig {
				t.Fatalf("final world digests diverge: %s vs %s", straight.finalDig, paused.finalDig)
			}
			// Restore: the independently replayed world must land on the
			// same mid-run snapshot and continue identically.
			if restored.pausedDig != paused.pausedDig {
				t.Fatalf("replayed world digest %s at step %d, want %s",
					restored.pausedDig, pauseAt, paused.pausedDig)
			}
			if restored.finalDig != paused.finalDig || !bytes.Equal(restored.trace, paused.trace) {
				t.Fatal("restored world's continuation diverges from the original")
			}
			if len(straight.trace) == 0 || len(straight.dags) == 0 || len(straight.oracle) == 0 {
				t.Fatal("empty artifacts — the identity check is vacuous")
			}
		})
	}
}
