package hostprof_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"shootdown/internal/hostprof"
)

// sink keeps phase allocations alive past any compiler cleverness.
var sink []byte

// allocMiB is the named helper the attribution test expects to find at
// the top of the phase's function table.
func allocMiB() { sink = make([]byte, 1<<20) }

const allocMiBName = "shootdown/internal/hostprof_test.allocMiB"

// TestPhaseAttributesExactly pins the sampler's contract: with every
// allocation profiled, a helper's allocation is charged to that helper,
// the attributed total matches the allocator's TotalAlloc delta, and the
// profiling rate is restored whether the phase succeeds or fails.
func TestPhaseAttributesExactly(t *testing.T) {
	rate := runtime.MemProfileRate
	s := hostprof.NewSampler()
	if err := s.Phase("alloc", func() error {
		allocMiB()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runtime.MemProfileRate != rate {
		t.Fatalf("MemProfileRate = %d after a phase, want %d restored", runtime.MemProfileRate, rate)
	}
	if err := s.Phase("bad", func() error { return os.ErrClosed }); err != os.ErrClosed {
		t.Fatalf("Phase returned %v, want %v", err, os.ErrClosed)
	}
	if runtime.MemProfileRate != rate {
		t.Fatalf("MemProfileRate = %d after a failing phase, want %d restored", runtime.MemProfileRate, rate)
	}

	p := s.Phases()[0]
	var helper int64
	for _, sc := range p.Sites {
		if sc.Site == allocMiBName {
			helper = sc.Bytes
			if sc.Package != "shootdown/internal/hostprof_test" {
				t.Errorf("helper row package = %q", sc.Package)
			}
		}
	}
	if helper < 1<<20 {
		t.Fatalf("%s attributed %d bytes, want at least 1 MiB; sites: %+v", allocMiBName, helper, p.Sites)
	}
	if p.Sites[0].Site != allocMiBName {
		t.Errorf("top site = %q, want %q", p.Sites[0].Site, allocMiBName)
	}
	if diff := p.CountedBytes - p.MeasuredBytes; diff*100 > p.MeasuredBytes || -diff*100 > p.MeasuredBytes {
		t.Fatalf("attributed %d bytes, measured %d: more than 1%% apart", p.CountedBytes, p.MeasuredBytes)
	}
}

func TestSamplerPhasesAndReport(t *testing.T) {
	s := hostprof.NewSampler()
	if err := s.Phase("alloc", func() error {
		allocMiB()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Phase("idle", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r, err := s.Report("alloc")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("fresh report fails validation: %v", err)
	}
	hp := r.HeadlinePhase()
	if hp == nil || hp.Name != "alloc" {
		t.Fatal("headline phase not resolved")
	}
	if hp.MeasuredBytes < 1<<20 {
		t.Fatalf("measured %d bytes, expected at least the 1 MB allocation", hp.MeasuredBytes)
	}
	if len(hp.Packages) == 0 || hp.Packages[0].Site != "shootdown/internal/hostprof_test" || hp.Packages[0].Bytes < 1<<20 {
		t.Fatalf("package table does not lead with the test package's 1 MiB: %+v", hp.Packages)
	}
	if r.CoveragePct < 99 || r.CoveragePct > 101 {
		t.Fatalf("coverage %.2f%% out of range", r.CoveragePct)
	}
	if r.GoVersion == "" || r.GOMAXPROCS <= 0 || r.NumCPU <= 0 {
		t.Fatalf("missing provenance: %+v", r.Provenance)
	}
	// A runtime allocation (a timer, say) can land in the phase beside
	// the test's own, so the package table may have more than one row.
	out := r.Render(10)
	top := fmt.Sprintf("top %d allocating packages", min(10, len(hp.Packages)))
	for _, want := range []string{"host-cost/v1", "alloc", "«headline»", allocMiBName, top} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSamplerPhaseErrorRecorded(t *testing.T) {
	s := hostprof.NewSampler()
	wantErr := os.ErrClosed
	if err := s.Phase("bad", func() error { return wantErr }); err != wantErr {
		t.Fatalf("Phase returned %v, want %v", err, wantErr)
	}
	if got := s.Phases(); len(got) != 1 || got[0].Err == "" {
		t.Fatalf("failed phase not recorded with its error: %+v", got)
	}
	if _, err := s.Report("missing"); err == nil {
		t.Fatal("Report with an unknown headline must fail")
	}
}

func TestReportRoundTripAndValidateFailures(t *testing.T) {
	s := hostprof.NewSampler()
	if err := s.Phase("p", func() error {
		allocMiB()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r, err := s.Report("p")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckCoverage(99); err != nil {
		t.Fatalf("exact attribution fails the 99%% band: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "hostcost.json")
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := hostprof.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped report fails validation: %v", err)
	}

	corrupt := func(mut func(*hostprof.Report)) *hostprof.Report {
		var cp hostprof.Report
		if err := json.Unmarshal(buf.Bytes(), &cp); err != nil {
			t.Fatal(err)
		}
		mut(&cp)
		return &cp
	}
	cases := map[string]*hostprof.Report{
		"bad format":        corrupt(func(r *hostprof.Report) { r.Format = "host-cost/v0" }),
		"no phases":         corrupt(func(r *hostprof.Report) { r.Phases = nil }),
		"bad headline":      corrupt(func(r *hostprof.Report) { r.Headline = "nope" }),
		"counted mismatch":  corrupt(func(r *hostprof.Report) { r.Phases[0].CountedBytes += 7 }),
		"package mismatch":  corrupt(func(r *hostprof.Report) { r.Phases[0].Packages[0].Bytes += 7 }),
		"coverage mismatch": corrupt(func(r *hostprof.Report) { r.CoveragePct += 50 }),
		"no provenance":     corrupt(func(r *hostprof.Report) { r.GoVersion = "" }),
	}
	for name, bad := range cases {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want failure", name)
		}
	}
	under := corrupt(func(r *hostprof.Report) { r.Phases[0].MeasuredBytes *= 2 })
	if err := under.CheckCoverage(99); err == nil {
		t.Error("a phase attributing half its bytes passes the 99% band")
	}
}

func TestSamplerProfiles(t *testing.T) {
	s := hostprof.NewSampler()
	dir := t.TempDir()
	if err := s.StartProfiles(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Phase("work", func() error {
		for i := 0; i < 1000; i++ {
			sink = append(sink[:0], byte(i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.StopProfiles(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"cpu.pprof", "heap.pprof"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil || st.Size() == 0 {
			t.Fatalf("%s missing or empty (err %v)", f, err)
		}
	}
	if err := s.StopProfiles(); err != nil {
		t.Fatalf("second StopProfiles must be a no-op: %v", err)
	}
}

// budgetReport is a two-phase report for the budget tests.
func budgetReport() *hostprof.Report {
	return &hostprof.Report{Phases: []hostprof.PhaseCost{
		{Name: "fig2", Packages: []hostprof.SiteCost{
			{Site: "shootdown/internal/mem", Bytes: 1000},
			{Site: "runtime", Bytes: 100},
		}},
		{Name: "other", Packages: []hostprof.SiteCost{{Site: "shootdown/internal/xpr", Bytes: 1 << 30}}},
	}}
}

func TestBudgetFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budget.txt")
	src := "# phase package max-bytes\n\nfig2 shootdown/internal/mem 1000\nfig2  runtime\t100\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := hostprof.LoadBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1 || b["fig2"]["shootdown/internal/mem"] != 1000 || b["fig2"]["runtime"] != 100 {
		t.Fatalf("parsed budget %v", b)
	}
	// Exactly at the ceiling passes; phases the budget does not name are
	// not checked.
	if err := budgetReport().CheckBudget(b); err != nil {
		t.Fatalf("report at its ceilings fails: %v", err)
	}
	for _, bad := range []string{"fig2 runtime\n", "fig2 runtime -1\n", "fig2 runtime 1\nfig2 runtime 2\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := hostprof.LoadBudget(path); err == nil {
			t.Errorf("malformed budget %q loaded without error", bad)
		}
	}
}

func TestBudgetBreaches(t *testing.T) {
	cases := []struct {
		name   string
		budget hostprof.Budget
		want   []string
	}{
		{"over ceiling", hostprof.Budget{"fig2": {"shootdown/internal/mem": 999, "runtime": 100}},
			[]string{`package shootdown/internal/mem allocates 1000 B, over its budget of 999 B`}},
		{"unbudgeted package", hostprof.Budget{"fig2": {"shootdown/internal/mem": 1000}},
			[]string{`package runtime allocates 100 B but has no budget entry`}},
		{"missing phase", hostprof.Budget{"table1": {"runtime": 1}},
			[]string{`phase "table1": budgeted but not recorded`}},
		{"every breach reported", hostprof.Budget{"fig2": {"runtime": 1}, "table1": {}},
			[]string{"shootdown/internal/mem allocates 1000 B but has no budget entry", "runtime allocates 100 B, over", `"table1": budgeted but not recorded`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := budgetReport().CheckBudget(tc.budget)
			if err == nil {
				t.Fatal("breach not reported")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error lacks %q:\n%v", want, err)
				}
			}
		})
	}
}
