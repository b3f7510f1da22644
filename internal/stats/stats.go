// Package stats provides the small set of statistics used by the paper's
// evaluation: mean, standard deviation, median, percentiles, and a
// least-squares linear fit (used for the Figure 2 trend line).
//
// The paper reports results as mean±standard deviation, notes that most time
// distributions are right-skewed (median < mean), and flags some aggregates
// as "NM" (not meaningful) when the sample is too small or the distribution
// is unusual; Summary mirrors that reporting style.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations.
type Sample struct {
	xs []float64
}

// Add appends one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 { return Mean(s.xs) }

// StdDev returns the sample standard deviation (n-1 denominator).
func (s *Sample) StdDev() float64 { return StdDev(s.xs) }

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return Percentile(s.xs, 50) }

// Percentile returns the p-th percentile (0..100) by linear interpolation.
func (s *Sample) Percentile(p float64) float64 { return Percentile(s.xs, p) }

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 {
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t
}

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator);
// it returns 0 for fewer than two observations.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Fit is a least-squares linear fit y = Intercept + Slope*x.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LeastSquares fits a line to (xs[i], ys[i]) by ordinary least squares.
// It returns an error if the inputs differ in length, have fewer than two
// points, or have zero variance in x.
func LeastSquares(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: zero variance in x over %v points", n)
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1 // all ys equal and the fit is exact
	}
	return fit, nil
}

// At evaluates the fitted line at x.
func (f Fit) At(x float64) float64 { return f.Intercept + f.Slope*x }

// Summary is a one-line digest in the paper's reporting style.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Median float64
	P10    float64
	P90    float64
	// NM reports whether median/percentiles are Not Meaningful: too few
	// samples, or a strongly bimodal distribution (the paper's Agora case).
	NM bool
}

// Summarize computes a Summary of xs. Percentile fields are flagged NM when
// there are fewer than minMeaningful samples or the sample is bimodal.
func Summarize(xs []float64, minMeaningful int) Summary {
	s := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Median: Percentile(xs, 50),
		P10:    Percentile(xs, 10),
		P90:    Percentile(xs, 90),
	}
	if len(xs) < minMeaningful || Bimodal(xs) {
		s.NM = true
	}
	return s
}

// Bimodal applies a crude dip heuristic: split the sorted sample at its
// largest gap; if both halves are substantial (>= 20% of the data each) and
// the gap exceeds 3x the mean within-half neighbour spacing, call it bimodal.
// This is only used to decide when medians are "not meaningful" in the sense
// of the paper's Table 2 discussion of Agora.
func Bimodal(xs []float64) bool {
	if len(xs) < 10 {
		return false
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	gapIdx, gap := 0, 0.0
	for i := 1; i < len(sorted); i++ {
		if d := sorted[i] - sorted[i-1]; d > gap {
			gap, gapIdx = d, i
		}
	}
	lo, hi := sorted[:gapIdx], sorted[gapIdx:]
	if len(lo) < len(sorted)/5 || len(hi) < len(sorted)/5 {
		return false
	}
	span := sorted[len(sorted)-1] - sorted[0]
	if span <= 0 {
		return false
	}
	// Mean spacing if the data were spread evenly, excluding the big gap.
	rest := span - gap
	meanSpacing := rest / float64(len(sorted)-2)
	return gap > 6*meanSpacing && gap > 0.25*span
}

// String formats the summary as "mean±std (median md, n=N)" with NM noted.
func (s Summary) String() string {
	if s.NM {
		return fmt.Sprintf("%.0f±%.0f (median NM, n=%d)", s.Mean, s.StdDev, s.N)
	}
	return fmt.Sprintf("%.0f±%.0f (median %.0f, n=%d)", s.Mean, s.StdDev, s.Median, s.N)
}
