package hostprof_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"shootdown/internal/experiments"
	"shootdown/internal/hostprof"
	"shootdown/internal/workload"
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
	if err := hostprof.CheckCoverage(s.Phases()[:1], 99); err != nil {
		t.Fatal(err)
	}
	p.CountedBytes /= 2
	if err := hostprof.CheckCoverage([]hostprof.PhaseCost{p}, 99); err == nil {
		t.Error("a phase attributing half its bytes passes the 99% band")
	}
}

// TestSamplerPhasesAndReport checks what a sampler reports over several
// phases: each is recorded in execution order under its name, an
// allocating phase measures its allocation and leads its package table
// with the allocating package, and an idle phase attributes no more
// than the runtime's own noise.
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
	ps := s.Phases()
	if len(ps) != 2 || ps[0].Name != "alloc" || ps[1].Name != "idle" {
		t.Fatalf("phases not recorded in order: %+v", ps)
	}
	hp := ps[0]
	if hp.MeasuredBytes < 1<<20 {
		t.Fatalf("measured %d bytes, expected at least the 1 MiB allocation", hp.MeasuredBytes)
	}
	if len(hp.Packages) == 0 || hp.Packages[0].Site != "shootdown/internal/hostprof_test" || hp.Packages[0].Bytes < 1<<20 {
		t.Fatalf("package table does not lead with the test package's 1 MiB: %+v", hp.Packages)
	}
	if err := hostprof.CheckCoverage(ps[:1], 99); err != nil {
		t.Fatal(err)
	}
	if idle := ps[1]; idle.CountedBytes >= 1<<20 {
		t.Fatalf("idle phase attributed %d bytes", idle.CountedBytes)
	}
}

// TestHostCostBudget is the host byte gate. It runs three phases at seed
// 7 with every allocation profiled: the Figure 2 sweep at three runs per
// point, Table 1, and a 4-CPU churn world paused at step 1000,
// snapshotted, then run out and collected. Every phase must attribute
// within 1% of its measured bytes, and every package must stay under its
// ceiling in scripts/hostcost-budget.txt. The log holds each phase's
// package table and top functions (go test -v, or make hostcost).
func TestHostCostBudget(t *testing.T) {
	budget, err := hostprof.LoadBudget(filepath.Join("..", "..", "scripts", "hostcost-budget.txt"))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	// Built outside the phases: the budget has no row for this package.
	table1 := &experiments.Args{Seed: seed}
	churn := workload.AppConfig{NCPUs: 4, Seed: seed, Scale: 0.5, Oracle: true}
	s := hostprof.NewSampler()
	for _, ph := range []struct {
		name string
		run  func() error
	}{
		{"fig2", func() error { _, err := experiments.Fig2(seed, 3); return err }},
		{"table1", func() error { _, err := experiments.Table1(table1); return err }},
		{"snapshot", func() error {
			k, err := workload.StartChurn(churn)
			if err != nil {
				return err
			}
			paused, err := k.RunTo(1000) // internal/workload's snapshot benchmarks pause here too
			if paused {
				_, snapErr := k.Snapshot()
				if err = k.Run(); snapErr != nil {
					err = snapErr
				}
			}
			workload.CollectChurn(churn, k)
			return err
		}},
	} {
		if err := s.Phase(ph.name, ph.run); err != nil {
			t.Fatalf("phase %s: %v", ph.name, err)
		}
	}
	for _, p := range s.Phases() {
		var b strings.Builder
		fmt.Fprintf(&b, "phase %s: %d B measured, %d B attributed\n", p.Name, p.MeasuredBytes, p.CountedBytes)
		for _, tab := range []struct {
			what string
			rows []hostprof.SiteCost
		}{{"packages", p.Packages}, {"top functions", p.Sites[:min(10, len(p.Sites))]}} {
			fmt.Fprintf(&b, " %s:\n", tab.what)
			for _, r := range tab.rows {
				fmt.Fprintf(&b, "  %10d B %7d allocs  %s\n", r.Bytes, r.Count, r.Site)
			}
		}
		t.Log(b.String())
	}
	if err := hostprof.CheckCoverage(s.Phases(), 99); err != nil {
		t.Error(err)
	}
	if err := hostprof.CheckBudget(s.Phases(), budget); err != nil {
		t.Error(err)
	}
}

func TestSamplerPhaseErrorRecorded(t *testing.T) {
	s := hostprof.NewSampler()
	wantErr := os.ErrClosed
	if err := s.Phase("bad", func() error { return wantErr }); err != wantErr {
		t.Fatalf("Phase returned %v, want %v", err, wantErr)
	}
	if got := s.Phases(); len(got) != 1 || got[0].Name != "bad" {
		t.Fatalf("failed phase not recorded: %+v", got)
	}
}

// budgetPhases are two recorded phases for the budget tests.
func budgetPhases() []hostprof.PhaseCost {
	return []hostprof.PhaseCost{
		{Name: "fig2", Packages: []hostprof.SiteCost{
			{Site: "shootdown/internal/mem", Bytes: 1000},
			{Site: "runtime", Bytes: 100},
		}, Sites: []hostprof.SiteCost{
			{Site: "shootdown/internal/mem.New", Package: "shootdown/internal/mem", Bytes: 600},
			{Site: "shootdown/internal/mem.(*PhysMem).AllocFrame", Package: "shootdown/internal/mem", Bytes: 400},
			{Site: "runtime.malg", Package: "runtime", Bytes: 100},
		}},
		{Name: "other", Packages: []hostprof.SiteCost{{Site: "shootdown/internal/xpr", Bytes: 1 << 30}}},
	}
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
	if err := hostprof.CheckBudget(budgetPhases(), b); err != nil {
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
			[]string{`package shootdown/internal/mem allocates 1000 B, over its budget of 999 B; top functions: ` +
				`shootdown/internal/mem.New 600 B, shootdown/internal/mem.(*PhysMem).AllocFrame 400 B`}},
		{"unbudgeted package", hostprof.Budget{"fig2": {"shootdown/internal/mem": 1000}},
			[]string{`package runtime allocates 100 B but has no budget entry; top functions: runtime.malg 100 B`}},
		{"missing phase", hostprof.Budget{"table1": {"runtime": 1}},
			[]string{`phase "table1": budgeted but not recorded`}},
		{"every breach reported", hostprof.Budget{"fig2": {"runtime": 1}, "table1": {}},
			[]string{"shootdown/internal/mem allocates 1000 B but has no budget entry", "runtime allocates 100 B, over", `"table1": budgeted but not recorded`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := hostprof.CheckBudget(budgetPhases(), tc.budget)
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
