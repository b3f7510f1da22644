package workload

import "testing"

// TestFig2Calibration validates the Figure 2 reproduction end to end: the
// basic cost of shootdown is linear in the number of processors shot at
// over 1..12 with constants near the paper's 430 µs + 55 µs/processor, the
// 100-processor extrapolation lands near the paper's ~6 ms (§11), and bus
// congestion bends the curve above the trend line for 13-15 processors.
func TestFig2Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full 16-CPU sweep is slow")
	}
	res, err := RunBasicCost(BasicCostConfig{
		Ks: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, Runs: 4, App: AppConfig{NCPUs: 16, Seed: 11, NoTimer: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fit(1..%d): %.0f + %.1f*n µs (R2=%.3f), at100=%.0f µs",
		res.FitMaxK, res.Fit.Intercept, res.Fit.Slope, res.Fit.R2, res.At100US)
	for _, p := range res.Points {
		t.Logf("k=%2d mean=%6.0f std=%5.0f trend=%6.0f", p.Processors, p.MeanUS, p.StdUS, res.Fit.At(float64(p.Processors)))
	}
	if res.Fit.Slope < 40 || res.Fit.Slope > 70 {
		t.Errorf("slope %.1f µs/processor outside the calibrated band [40, 70]", res.Fit.Slope)
	}
	if res.Fit.Intercept < 330 || res.Fit.Intercept > 530 {
		t.Errorf("intercept %.0f µs outside the calibrated band [330, 530]", res.Fit.Intercept)
	}
	if res.Fit.R2 < 0.99 {
		t.Errorf("R2 %.3f: basic cost should be almost perfectly linear below 13 processors", res.Fit.R2)
	}
	if res.At100US < 4000 || res.At100US > 8000 {
		t.Errorf("100-processor extrapolation %.0f µs; the paper cites ~6 ms", res.At100US)
	}
	// The congestion knee: the tail departs progressively above the trend.
	prevExcess := 0.0
	for _, p := range res.Points {
		if p.Processors < 13 {
			continue
		}
		excess := p.MeanUS - res.Fit.At(float64(p.Processors))
		if excess <= 0 {
			t.Errorf("k=%d at or below trend; expected congestion above 12 processors", p.Processors)
		}
		if excess < prevExcess {
			t.Errorf("k=%d congestion excess %.0f not increasing (prev %.0f)", p.Processors, excess, prevExcess)
		}
		prevExcess = excess
	}
}
