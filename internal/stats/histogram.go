package stats

import (
	"fmt"
	"math"
)

// Histogram accumulates observations into fixed log-spaced buckets, so
// latency distributions (right-skewed, spanning decades — exactly what the
// paper's Tables 2-4 report) can be exported without retaining every sample.
// Buckets are defined once at construction; observing is O(log buckets) and
// allocation-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1; counts[len(bounds)] is the overflow
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds a histogram with perDecade log-spaced bucket upper
// bounds covering [lo, hi]. lo and hi must be positive with lo < hi;
// observations outside the range land in the first or overflow bucket, so
// nothing is ever lost. perDecade defaults to 5 if nonpositive.
func NewHistogram(lo, hi float64, perDecade int) *Histogram {
	if lo <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram range [%g, %g]", lo, hi))
	}
	if perDecade <= 0 {
		perDecade = 5
	}
	step := math.Pow(10, 1/float64(perDecade))
	// One bound per step across the range, plus the first and one for
	// rounding: the loop below appends into a single allocation.
	bounds := make([]float64, 0, int(math.Log10(hi/lo)*float64(perDecade))+2)
	for b := lo; b < hi*(1+1e-12); b *= step {
		bounds = append(bounds, b)
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	// Binary search for the first bound >= x.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
	h.count++
	h.sum += x
	if x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
}

// ObserveAll records many observations.
func (h *Histogram) ObserveAll(xs ...float64) {
	for _, x := range xs {
		h.Observe(x)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 with no observations.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Bucket is one histogram bucket in cumulative (Prometheus "le") form.
type Bucket struct {
	UpperBound float64 // math.Inf(1) for the overflow bucket
	Cumulative uint64  // observations <= UpperBound
}

// Buckets returns the cumulative bucket counts, ending with the +Inf bucket
// (whose Cumulative equals Count).
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out = append(out, Bucket{UpperBound: ub, Cumulative: cum})
	}
	return out
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation within
// the containing bucket. It returns 0 with no observations; estimates are
// clamped to [Min, Max].
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	var cum uint64
	for i, c := range h.counts {
		if float64(cum+c) < target {
			cum += c
			continue
		}
		// The quantile lies in bucket i: interpolate across its width.
		lo := h.min
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if lo > hi {
			lo = hi
		}
		frac := 0.0
		if c > 0 {
			frac = (target - float64(cum)) / float64(c)
		}
		v := lo + frac*(hi-lo)
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}
