package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// test's invocation starts measurement children, and runs the tests from
// the repository root, where the benchmark always runs.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func synthetic() *resultSet {
	e2e := func(v float64) summary {
		s := summarize([]float64{v * 0.99, v, v * 1.01})
		s.Value = s.Median
		return s
	}
	return &resultSet{Workloads: map[string]*workloadResult{"fig2": {
		E2E: map[string]summary{
			"wall_s": e2e(3.5), "steps_per_s": e2e(1.25e6), "setup_s": e2e(0.0012), "alloc_mb": e2e(13688),
			"retained_mb": e2e(13357), "peak_rss_mb": e2e(389), "live_goroutines": e2e(3826),
		},
		Counts:   map[string]float64{"sim.steps": 4381943, "leak.goroutines": 3825},
		Accuracy: map[string]float64{"fig2_slope_err_pct": 0.7},
		Digest:   "97125430250dce81",
	}}}
}

func TestCompareFlagsRegressions(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var bound float64
	for _, m := range sp.EndToEnd {
		if m.Name == "wall_s" {
			bound = m.Bound
		}
	}
	if bound <= 0 {
		t.Fatal("BENCHMARK.json gives wall_s no bound")
	}
	slower := func(by float64) func(w *workloadResult) {
		return func(w *workloadResult) {
			s := w.E2E["wall_s"]
			s.Value *= 1 + by
			w.E2E["wall_s"] = s
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(w *workloadResult)
		pass   bool
	}{
		{"identical", func(*workloadResult) {}, true},
		{"wall_s within its bound", slower(bound / 2), true},
		{"wall_s past its bound", slower(bound + 0.05), false},
		{"leaked goroutine +1", func(w *workloadResult) { w.Counts["leak.goroutines"]++ }, false},
		{"digest", func(w *workloadResult) { w.Digest = "0000000000000000" }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := synthetic()
			tc.mutate(b.Workloads["fig2"])
			var out bytes.Buffer
			if got := compareSets(&out, sp, synthetic(), b); got != tc.pass {
				t.Errorf("compare passed = %v, want %v\n%s", got, tc.pass, out.String())
			}
		})
	}
}

// TestQuartilesMatchPython pins summarize to Python's
// statistics.quantiles(values, n=4), which judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
	} {
		s := summarize(tc.in)
		if s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = %v/%v/%v, want %v/%v/%v", tc.in, s.Q1, s.Median, s.Q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"shootdown/internal/sim.(*Engine).run":          "sim",
		"shootdown/internal/fault/shrink.Minimize":      "fault",
		"shootdown/internal/experiments.Fig2":           "other",
		"runtime.chanrecv":                              "runtime_sched",
		"runtime.gcDrain":                               "runtime_gc",
		"runtime.mallocgcSmallScanNoHeader":             "other",
		"container/heap.Pop":                            "other",
		"shootdown/internal/machine.(*Exec).busStall":   "machine",
		"shootdown/internal/workload.churnUser.func1.1": "workload",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestTinyRunEmitsDeclaredMetrics runs every workload at the tiny size,
// untraced and traced, and checks the result line against BENCHMARK.json.
func TestTinyRunEmitsDeclaredMetrics(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	dir := t.TempDir()
	for _, b := range benches {
		for _, traced := range []bool{false, true} {
			var stdout, stderr bytes.Buffer
			if err := benchRun(&stdout, &stderr, b.name, 1, 0, traced, true, dir); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", b.name, traced, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", b.name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", b.name, traced, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			want := names(sp.EndToEnd)
			if traced {
				want = names(sp.PerLayer)
			}
			got := sortedKeys(res.Metrics)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v metrics\n got %v\nwant %v", b.name, traced, got, want)
			}
			for _, n := range got {
				if !valid.MatchString(n) {
					t.Errorf("metric name %q", n)
				}
			}
		}
	}
}
