package workload

import (
	"testing"

	"shootdown/internal/kernel"
)

// TestObserveOncePerWorld pins the lifecycle's Observe contract: every
// world a workload builds is observed exactly once, after the run is
// settled, whether or not the run failed. A 1–2 ms virtual-time bound makes
// every application here time out long before it finishes, which is the
// failure a campaign row must still harvest its counters from.
func TestObserveOncePerWorld(t *testing.T) {
	const bound = 1_500_000 // 1.5 virtual ms
	cases := []struct {
		name string
		run  func(AppConfig) error
	}{
		{"machbuild", func(c AppConfig) error { _, err := RunMachBuild(c); return err }},
		{"parthenon", func(c AppConfig) error { _, err := RunParthenon(c); return err }},
		{"agora", func(c AppConfig) error { _, err := RunAgora(c); return err }},
		{"camelot", func(c AppConfig) error { _, err := RunCamelot(c); return err }},
		{"churn", func(c AppConfig) error { _, err := RunChurn(c); return err }},
		{"dma", func(c AppConfig) error { _, err := RunDMA(c); return err }},
		{"tester", func(c AppConfig) error {
			_, err := RunTester(TesterConfig{Children: 4, App: c})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			err := c.run(AppConfig{
				NCPUs:          8,
				Seed:           7,
				MaxVirtualTime: bound,
				Observe:        func(*kernel.Kernel) { calls++ },
			})
			if err == nil {
				t.Fatalf("run finished inside a %d ns bound; the test needs it to fail", bound)
			}
			if calls != 1 {
				t.Fatalf("Observe called %d times on a failed run, want 1 (err: %v)", calls, err)
			}
		})
	}
}

// TestCollectChurnObservesOnce checks the paused-world path: a world
// started with StartChurn and settled by the caller is observed exactly
// once, by CollectChurn.
func TestCollectChurnObservesOnce(t *testing.T) {
	calls := 0
	cfg := AppConfig{NCPUs: 4, Seed: 7, Scale: 0.25, Observe: func(*kernel.Kernel) { calls++ }}
	k, err := StartChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("StartChurn observed the world before it ran (%d calls)", calls)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	CollectChurn(cfg, k)
	if calls != 1 {
		t.Fatalf("Observe called %d times, want 1", calls)
	}
}
