package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the workloads and every metric's name, unit and,
// for end-to-end metrics, the bound by which it may worsen.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, the working
// directory of every run (and of the package's tests, see TestMain).
func loadSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

//go:embed pins.json
var pinsJSON []byte

// pins maps workload → seed → the digest of that seed's full-size result.
// A sample whose digest differs from its pin is a semantic change.
func loadPins() (map[string]map[string]string, error) {
	var pins map[string]map[string]string
	err := json.Unmarshal(pinsJSON, &pins)
	return pins, err
}

// summary is the distribution of one metric over an invocation's samples
// and the value reported for it.
type summary struct {
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// summarize computes quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func summarize(values []float64) summary {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	s := summary{N: len(xs), Values: values}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[len(xs)-1]
	q := func(i int) float64 {
		if len(xs) < 2 {
			return xs[0]
		}
		m := len(xs) + 1
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	s.Q1, s.Median, s.Q3 = q(1), median(xs), q(3)
	return s
}

func median(values []float64) float64 {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// workloadResult is everything one invocation measured for one workload.
type workloadResult struct {
	// E2E summarizes the untraced samples' end-to-end metrics.
	E2E map[string]summary `json:"e2e"`
	// Counts are the exact per-sample op counts; every sample of one seed
	// must agree on them.
	Counts   map[string]float64 `json:"counts"`
	Accuracy map[string]float64 `json:"accuracy"`
	Digest   string             `json:"digest"`
	// PerLayer holds the traced run's metrics: host cost per step, the
	// explain model, the CPU rollup and the tracing overhead.
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

// aggregate folds an invocation's samples of one workload into its
// result. Samples are judged against the seed's pinned digest when there
// is one, else against the first sample: a sample that disagrees counts
// all its worlds as failed.
func aggregate(name string, seed int64, tiny bool, samples []sampleResult, setup []float64) (*workloadResult, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	want := ""
	if !tiny {
		want = pins[name][strconv.FormatInt(seed, 10)]
	}
	w := &workloadResult{E2E: map[string]summary{}}
	vals := map[string][]float64{}
	for _, s := range samples {
		w.Attempted += s.Attempted
		if s.Err != "" {
			w.Errors = append(w.Errors, s.Err)
			w.Failed += s.Attempted
			continue
		}
		if want == "" {
			want = s.Digest
		}
		if s.Digest != want {
			w.Errors = append(w.Errors, fmt.Sprintf("digest %s, want %s", s.Digest, want))
			w.Failed += s.Attempted
			continue
		}
		w.Failed += s.Failed
		if w.Counts == nil {
			w.Digest, w.Counts, w.Accuracy = s.Digest, s.Counts, s.Accuracy
		} else if !sameCounts(w.Counts, s.Counts) {
			w.Errors = append(w.Errors, "op counts differ between samples of one seed")
			w.Failed += s.Attempted
		}
		vals["ref_s"] = append(vals["ref_s"], s.RefS)
		vals["wall_s"] = append(vals["wall_s"], s.WallS)
		vals["steps_per_s"] = append(vals["steps_per_s"], s.Counts["sim.steps"]/s.WallS)
		vals["alloc_mb"] = append(vals["alloc_mb"], s.AllocMB)
		vals["retained_mb"] = append(vals["retained_mb"], s.RetainedMB)
		vals["peak_rss_mb"] = append(vals["peak_rss_mb"], s.PeakRSSMB)
		vals["live_goroutines"] = append(vals["live_goroutines"], float64(s.LiveGoroutines))
	}
	if len(setup) > 0 {
		vals["setup_s"] = setup
	}
	// Other tenants of a shared host only ever slow a sample down, and they
	// slow the reference loop alike: the fastest sample over the fastest
	// reference run is the steadiest estimate of the simulator's own cost,
	// where a median reads the host as much as the code. Time metrics are
	// reported on the reference host's scale.
	hostScale := 0.0
	if refs := vals["ref_s"]; len(refs) > 0 {
		hostScale = refSeconds / summarize(refs).Min
	}
	for k, v := range vals {
		s := summarize(v)
		s.Value = s.Median
		switch k {
		case "wall_s":
			s.Value = s.Min * hostScale
		case "steps_per_s":
			s.Value = ratio(s.Max, hostScale)
		}
		w.E2E[k] = s
	}
	return w, nil
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// perLayer completes the traced run's metrics: host ns per engine step of
// the fastest sample, the CPU rollup of the traced sample, the explain
// model of wall_s, and the tracing overhead against the untraced median
// (a single traced sample reads the host's typical state, not its
// calmest).
func (w *workloadResult) perLayer(l ladderResult, traced sampleResult, cpu map[string]float64) {
	wall := w.E2E["wall_s"]
	w.PerLayer = explainMetrics(explainTerms(w.Counts, l, ladderScale(l)), wall.Value)
	for k, v := range cpu {
		w.PerLayer[k] = v
	}
	w.PerLayer["sim.ns_per_step"] = 1e9 * ratio(wall.Value, w.Counts["sim.steps"])
	w.PerLayer["trace_overhead_pct"] = 100 * (ratio(traced.WallS, wall.Median) - 1)
}

// ladderScale prices the ladder's rungs on the reference host, the scale
// wall_s is reported on: the ladder child and the samples ran at different
// moments of a shared host, and the fastest reference loop in each reads
// how fast the host was at its calmest.
func ladderScale(l ladderResult) float64 {
	return ratio(refSeconds, l.RefS)
}

// ladderMetrics flattens the ladder into per-layer metric values.
func ladderMetrics(l ladderResult) map[string]float64 {
	out := map[string]float64{}
	for k, r := range l.Rungs {
		out[k] = r.Value
	}
	out["sim.switch_allocs"] = l.Rungs["sim.switch_ns"].Allocs
	return out
}

// metricValues returns the values of every metric the spec declares for
// one trace setting, or an error naming one it cannot supply.
func metricValues(sp *spec, w *workloadResult, l ladderResult, traced bool) (map[string]any, error) {
	have := map[string]float64{}
	decl := sp.EndToEnd
	if traced {
		decl = sp.PerLayer
		for _, src := range []map[string]float64{w.Counts, ladderMetrics(l), w.PerLayer} {
			for k, v := range src {
				have[k] = v
			}
		}
	} else {
		for k, s := range w.E2E {
			have[k] = s.Value
		}
	}
	out := map[string]any{}
	for _, m := range decl {
		v, ok := have[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	return out, nil
}

// resultSet is what set mode writes and compare and explain read.
type resultSet struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
	Ladder     ladderResult               `json:"ladder"`
}

// provenance is stamped into every result.
type provenance struct {
	GoVersion       string `json:"go_version"`
	ChildGOMAXPROCS int    `json:"gomaxprocs"`
	NProc           int    `json:"nproc"`
	Commit          string `json:"commit"`
	Seed            int64  `json:"seed"`
	Tiny            bool   `json:"tiny,omitempty"`
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// compareSets prints, for every (metric, workload) pair, both reported
// values, both spreads and the bound, and reports whether b stays within every
// bound of a with identical counts, accuracy and digests.
func compareSets(w io.Writer, sp *spec, a, b *resultSet) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta\tb\tchange\tspread a\tspread b\tbound\tverdict\n")
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(tw, "%s\t(missing in b)\t\t\t\t\t\t\tFAIL\n", name)
			ok = false
			continue
		}
		for _, m := range sp.EndToEnd {
			sa, sb := wa.E2E[m.Name], wb.E2E[m.Name]
			change := ratio(sb.Value-sa.Value, sa.Value)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			if sa.N == 0 || sb.N == 0 || worse > m.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n", name, m.Name,
				sa.Value, sb.Value, 100*change, 100*sa.spread(), 100*sb.spread(), 100*m.Bound, verdict)
		}
		for _, d := range exactDiffs(wa, wb) {
			fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\tFAIL\n", name, d)
			ok = false
		}
	}
	tw.Flush()
	return ok
}

// exactDiffs lists every count, accuracy value, digest or failure total
// on which two results disagree; a speed-only change moves none of them.
func exactDiffs(a, b *workloadResult) []string {
	var out []string
	for _, pair := range []struct {
		kind string
		a, b map[string]float64
	}{{"count", a.Counts, b.Counts}, {"accuracy", a.Accuracy, b.Accuracy}} {
		keys := map[string]float64{}
		for k := range pair.a {
			keys[k] = 0
		}
		for k := range pair.b {
			keys[k] = 0
		}
		for _, k := range sortedKeys(keys) {
			va, oka := pair.a[k]
			vb, okb := pair.b[k]
			if oka != okb || va != vb {
				out = append(out, fmt.Sprintf("%s %s: %v vs %v", pair.kind, k, va, vb))
			}
		}
	}
	if a.Digest != b.Digest {
		out = append(out, fmt.Sprintf("digest: %s vs %s", a.Digest, b.Digest))
	}
	if a.Failed != b.Failed || b.Failed != 0 {
		out = append(out, fmt.Sprintf("failed worlds: %d vs %d", a.Failed, b.Failed))
	}
	return out
}
