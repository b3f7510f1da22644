package workload

import (
	"testing"
)

func TestTesterDetectsNoInconsistencyWithShootdown(t *testing.T) {
	res, err := RunTester(TesterConfig{Children: 4, App: AppConfig{NCPUs: 8, Seed: 1, NoTimer: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconsistent {
		t.Fatalf("inconsistency with shootdown enabled: saved=%v final=%v", res.Saved, res.Final)
	}
	if res.UserEvents != 1 {
		t.Fatalf("user shootdowns = %d, want exactly 1", res.UserEvents)
	}
	if res.ProcsShot != 4 {
		t.Fatalf("procs shot = %d, want 4", res.ProcsShot)
	}
	if res.ShootUS <= 0 {
		t.Fatal("no shootdown time measured")
	}
	for i, v := range res.Saved {
		if v == 0 {
			t.Fatalf("child %d never incremented (saved=%v)", i, res.Saved)
		}
	}
}

func TestTesterConfigValidation(t *testing.T) {
	if _, err := RunTester(TesterConfig{Children: 4, App: AppConfig{NCPUs: 4}}); err == nil {
		t.Fatal("children == ncpus should be rejected")
	}
	if _, err := RunTester(TesterConfig{Children: 0, App: AppConfig{NCPUs: 4}}); err == nil {
		t.Fatal("zero children should be rejected")
	}
}

func TestBasicCostSmall(t *testing.T) {
	res, err := RunBasicCost(BasicCostConfig{Ks: []int{1, 2, 3, 4, 5}, Runs: 3, App: AppConfig{NCPUs: 8, Seed: 7, NoTimer: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Cost must grow with the number of processors involved.
	if res.Points[4].MeanUS <= res.Points[0].MeanUS {
		t.Fatalf("cost not increasing: %v vs %v", res.Points[0].MeanUS, res.Points[4].MeanUS)
	}
	if res.Fit.Slope <= 0 {
		t.Fatalf("fit slope = %v", res.Fit.Slope)
	}
	t.Logf("fit: %.0f + %.1f*n µs (R2=%.3f)", res.Fit.Intercept, res.Fit.Slope, res.Fit.R2)
	for _, p := range res.Points {
		t.Logf("k=%d mean=%.0fµs std=%.0fµs", p.Processors, p.MeanUS, p.StdUS)
	}
}
