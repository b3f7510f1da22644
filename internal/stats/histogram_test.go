package stats

import (
	"math"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1, 1000, 5)
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram reported observations")
	}
	h.ObserveAll(10, 20, 30)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 60 || h.Mean() != 20 {
		t.Fatalf("Sum/Mean = %g/%g", h.Sum(), h.Mean())
	}
	if h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("Min/Max = %g/%g", h.Min(), h.Max())
	}
}

func TestHistogramOutOfRangeNeverLost(t *testing.T) {
	h := NewHistogram(10, 100, 1)
	h.ObserveAll(0.001, 10_000_000) // far below and far above the range
	bks := h.Buckets()
	last := bks[len(bks)-1]
	if !math.IsInf(last.UpperBound, 1) {
		t.Fatal("last bucket is not +Inf")
	}
	if last.Cumulative != h.Count() || h.Count() != 2 {
		t.Fatalf("+Inf cumulative = %d, Count = %d", last.Cumulative, h.Count())
	}
}

func TestHistogramBucketsMonotonic(t *testing.T) {
	h := NewHistogram(1, 100_000, 5)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	var prevUB float64
	var prevCum uint64
	for i, bk := range h.Buckets() {
		if i > 0 && !math.IsInf(bk.UpperBound, 1) && bk.UpperBound <= prevUB {
			t.Fatalf("bounds not ascending at bucket %d", i)
		}
		if bk.Cumulative < prevCum {
			t.Fatalf("cumulative counts decreased at bucket %d", i)
		}
		prevUB, prevCum = bk.UpperBound, bk.Cumulative
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 100_000, 10)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct {
		q      float64
		lo, hi float64 // acceptance interval for a bucketed estimate
	}{
		{0, 1, 1},
		{0.5, 350, 700},
		{0.9, 700, 1000},
		{1, 1000, 1000},
	} {
		got := h.Quantile(tc.q)
		if got < tc.lo || got > tc.hi {
			t.Fatalf("Quantile(%g) = %g, want in [%g, %g]", tc.q, got, tc.lo, tc.hi)
		}
	}
	empty := NewHistogram(1, 10, 1)
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	// All mass in one bucket: the interpolated quantile must move smoothly
	// between that bucket's effective bounds rather than snapping to an edge.
	h := NewHistogram(1, 1000, 1)
	for i := 0; i < 100; i++ {
		h.Observe(55)
	}
	if got := h.Quantile(0.5); got != 55 {
		t.Fatalf("single-valued Quantile(0.5) = %g, want clamped to 55", got)
	}
	// Uniform 1..1000: quantiles must be strictly increasing in q.
	u := NewHistogram(1, 100_000, 10)
	for i := 1; i <= 1000; i++ {
		u.Observe(float64(i))
	}
	prev := -1.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v := u.Quantile(q)
		if v <= prev {
			t.Fatalf("Quantile(%g) = %g not increasing (prev %g)", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramInvalidRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewHistogram(0, 10, 5)
}

// TestNewHistogramAllocatesOnce pins the bounds slice to one allocation
// (three in all, with the struct and the counts) and its values to the
// ones a growing append loop computes, bit for bit.
func TestNewHistogramAllocatesOnce(t *testing.T) {
	for _, r := range []struct {
		lo, hi float64
		per    int
	}{{100, 1e9, 5}, {1, 100_000, 5}, {10, 100, 1}, {1, 1000, 5}, {3, 7e4, 7}, {0.5, 2e10, 3}, {1, 1.5, 10}} {
		if allocs := testing.AllocsPerRun(10, func() { NewHistogram(r.lo, r.hi, r.per) }); allocs != 3 {
			t.Errorf("NewHistogram(%g, %g, %d): %v allocations, want 3", r.lo, r.hi, r.per, allocs)
		}
		var want []float64
		step := math.Pow(10, 1/float64(r.per))
		for b := r.lo; b < r.hi*(1+1e-12); b *= step {
			want = append(want, b)
		}
		got := NewHistogram(r.lo, r.hi, r.per).bounds
		if len(got) != len(want) {
			t.Fatalf("NewHistogram(%g, %g, %d): %d bounds, want %d", r.lo, r.hi, r.per, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("NewHistogram(%g, %g, %d) bound %d = %v, want %v", r.lo, r.hi, r.per, i, got[i], want[i])
			}
		}
	}
}
