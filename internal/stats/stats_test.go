package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestStdDevKnown(t *testing.T) {
	// Sample std-dev of {2,4,4,4,5,5,7,9} is sqrt(32/7).
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	want := math.Sqrt(32.0 / 7.0)
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("StdDev = %v, want %v", got, want)
	}
}

func TestStdDevDegenerate(t *testing.T) {
	if got := StdDev([]float64{5}); got != 0 {
		t.Fatalf("StdDev of singleton = %v, want 0", got)
	}
	if got := StdDev(nil); got != 0 {
		t.Fatalf("StdDev(nil) = %v, want 0", got)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("P0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 9 {
		t.Fatalf("P100 = %v, want 9", got)
	}
	if got := Percentile(xs, 50); got != 5 {
		t.Fatalf("P50 = %v, want 5", got)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 25); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("P25 = %v, want 2.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated input: %v", xs)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 430 + 55x, the paper's Figure 2 trend line.
	var xs, ys []float64
	for n := 1; n <= 12; n++ {
		xs = append(xs, float64(n))
		ys = append(ys, 430+55*float64(n))
	}
	fit, err := LeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 55, 1e-9) || !almostEqual(fit.Intercept, 430, 1e-9) {
		t.Fatalf("fit = %+v, want slope 55 intercept 430", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
	if got := fit.At(100); !almostEqual(got, 5930, 1e-6) {
		t.Fatalf("At(100) = %v, want 5930", got)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares([]float64{1}, []float64{2}); err == nil {
		t.Fatal("want error for single point")
	}
	if _, err := LeastSquares([]float64{1, 2}, []float64{2}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
	if _, err := LeastSquares([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Fatal("want error for zero x variance")
	}
}

func TestSampleAccumulates(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3} {
		s.Add(x)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d, want 3", s.N())
	}
	if s.Sum() != 6 {
		t.Fatalf("Sum = %v, want 6", s.Sum())
	}
	if s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("Min/Max = %v/%v, want 1/3", s.Min(), s.Max())
	}
	if s.Mean() != 2 {
		t.Fatalf("Mean = %v, want 2", s.Mean())
	}
	vs := s.Values()
	vs[0] = 99
	if s.Min() != 1 {
		t.Fatal("Values must return a copy")
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Median() != 0 {
		t.Fatal("empty sample aggregates should be 0")
	}
}

func TestSummarizeSkewed(t *testing.T) {
	// Right-skewed data: median should be below the mean, as in the
	// paper's shootdown time distributions.
	xs := []float64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 2000}
	s := Summarize(xs, 5)
	if s.NM {
		t.Fatalf("unexpected NM: %+v", s)
	}
	if s.Median >= s.Mean {
		t.Fatalf("median %v should be < mean %v for right-skewed data", s.Median, s.Mean)
	}
	if s.P10 > s.Median || s.Median > s.P90 {
		t.Fatalf("percentile ordering violated: %+v", s)
	}
}

func TestSummarizeNMSmall(t *testing.T) {
	s := Summarize([]float64{1, 2}, 5)
	if !s.NM {
		t.Fatal("want NM for tiny sample")
	}
	if s.String() == "" {
		t.Fatal("String should format")
	}
}

func TestBimodal(t *testing.T) {
	var uni, bi []float64
	for i := 0; i < 50; i++ {
		uni = append(uni, 100+float64(i))
		if i%2 == 0 {
			bi = append(bi, 100+float64(i))
		} else {
			bi = append(bi, 5000+float64(i))
		}
	}
	if Bimodal(uni) {
		t.Fatal("uniform data misclassified as bimodal")
	}
	if !Bimodal(bi) {
		t.Fatal("two-cluster data should be bimodal")
	}
	if Bimodal([]float64{1, 2}) {
		t.Fatal("tiny samples are never bimodal")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		lo, hi := Percentile(xs, 0), Percentile(xs, 100)
		return v1 <= v2 && lo <= v1 && v2 <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: least-squares recovers a noiseless line exactly.
func TestQuickLeastSquaresRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		slope := rng.Float64()*200 - 100
		intercept := rng.Float64()*1000 - 500
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + rng.Float64() // strictly increasing
			ys[i] = intercept + slope*xs[i]
		}
		fit, err := LeastSquares(xs, ys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !almostEqual(fit.Slope, slope, 1e-6*(1+math.Abs(slope))) ||
			!almostEqual(fit.Intercept, intercept, 1e-5*(1+math.Abs(intercept))) {
			t.Fatalf("trial %d: fit %+v, want slope %v intercept %v", trial, fit, slope, intercept)
		}
	}
}

// Property: mean is within [min, max] and shifting data shifts the mean.
func TestQuickMeanShift(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.Abs(x) < 1e12 && !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 1000
		}
		return almostEqual(Mean(shifted), m+1000, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
