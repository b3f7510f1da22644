package experiments

import (
	"slices"
	"testing"

	"shootdown/internal/workload"
)

// The experiment tests check each generator's numbers at seeds other than
// the pinned seed 7; TestExperimentDigests pins every report's text, and
// deeper shape assertions live in the workload package tests.

func TestFig2Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	r, err := Fig2(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fit.Slope <= 0 {
		t.Fatal("non-positive slope")
	}
}

func TestTable1Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("slow apps")
	}
	r, err := Table1(&Args{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mach[1].KernelEvents() <= r.Mach[0].KernelEvents() {
		t.Error("lazy evaluation had no effect on the Mach build")
	}
}

func TestTables234Render(t *testing.T) {
	if testing.Short() {
		t.Skip("slow apps")
	}
	r, err := Tables234(&Args{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 4 {
		t.Fatalf("apps = %d", len(r.Apps))
	}
	for i, app := range []string{"Mach", "Parthenon", "Agora", "Camelot"} {
		if r.Apps[i].Name != app {
			t.Errorf("app %d is %q, want %q", i, r.Apps[i].Name, app)
		}
	}
	if !r.Apps[2].KernelSummary().NM {
		t.Error("Table 2 should flag Agora's bimodal distribution as NM")
	}
}

func TestPerturbationRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := Perturbation(&Args{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r.TracedRuntime <= 0 || r.UntracedRuntime <= 0 {
		t.Fatalf("missing runtimes: %+v", r)
	}
	// The simulator charges nothing for tracing, so the perturbation
	// should be well under the paper's 1.5%.
	if r.PerturbationPct > 1.5 || r.PerturbationPct < -1.5 {
		t.Errorf("perturbation %.2f%% unexpectedly large", r.PerturbationPct)
	}
}

func TestScaleRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	r, err := Scale(&Args{Seed: 11, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Measured) == 0 {
		t.Fatal("no measured points")
	}
	// Larger machines must cost more, and congestion should put the
	// biggest measured machine above the linear trend.
	last := r.Measured[len(r.Measured)-1]
	if last.MeasuredUS <= r.Measured[0].MeasuredUS {
		t.Error("cost not increasing with machine size")
	}
	if last.MeasuredUS < last.TrendUS {
		t.Errorf("64-CPU machine below trend (%.0f < %.0f); congestion missing", last.MeasuredUS, last.TrendUS)
	}
}

func TestStrategyCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := StrategyCompare(&Args{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	byStrat := map[string]float64{}
	for _, row := range r.Rows {
		if !row.Consistent {
			t.Fatalf("%s violated consistency", row.Strategy)
		}
		if row.Children == 6 {
			byStrat[row.Strategy] = row.ProtectUS
		}
	}
	if !(byStrat["hardware-remote"] < byStrat["mach-shootdown"]) {
		t.Errorf("hardware remote (%.0f) should beat the software shootdown (%.0f)",
			byStrat["hardware-remote"], byStrat["mach-shootdown"])
	}
	if !(byStrat["mach-shootdown"] < byStrat["timer-flush"]) {
		t.Errorf("software shootdown (%.0f) should beat timer flushing (%.0f)",
			byStrat["mach-shootdown"], byStrat["timer-flush"])
	}
}

func TestIPIModes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := IPIModes(&Args{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// At 15 targets the multicast hardware must beat the unicast loop.
	i := slices.Index(r.Ks, 15)
	if i < 0 {
		t.Fatalf("sweep %v has no k=15", r.Ks)
	}
	u, m := r.Rows["unicast"][i], r.Rows["multicast"][i]
	if m >= u {
		t.Errorf("multicast (%.0f) should beat unicast (%.0f) at k=15", m, u)
	}
}

func TestHighPriorityIPIAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := HighPriorityIPI(&Args{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// The high-priority interrupt should cut the tail (90th percentile).
	if r.HighPrio.P90 >= r.Stock.P90 {
		t.Errorf("high-priority IPI did not cut the tail: p90 %.0f vs %.0f", r.HighPrio.P90, r.Stock.P90)
	}
}

func TestIdleOptAblation(t *testing.T) {
	r, err := IdleOpt(&Args{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.IPIsWith != 0 {
		t.Errorf("optimization on: %d IPIs sent to idle processors", r.IPIsWith)
	}
	if r.IPIsWithout == 0 {
		t.Error("optimization off: no IPIs sent")
	}
	if r.WithOptUS >= r.WithoutOptUS {
		t.Errorf("idle optimization did not help: %.0f vs %.0f", r.WithOptUS, r.WithoutOptUS)
	}
}

func TestFlushThresholdAblation(t *testing.T) {
	r, err := FlushThreshold(&Args{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Small thresholds flush; a threshold above the range size must not.
	if r.Rows[0].FullFlushes == 0 {
		t.Error("threshold 1 on a 16-page range should flush")
	}
	last := r.Rows[len(r.Rows)-1]
	if last.Threshold >= 16 && last.FullFlushes != 0 {
		t.Errorf("threshold %d should not flush for a 16-page range", last.Threshold)
	}
}

func TestQueueSizeAblation(t *testing.T) {
	r, err := QueueSize(&Args{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Overflows == 0 {
		t.Error("queue size 1 should overflow with 12 queued shootdowns")
	}
	last := r.Rows[len(r.Rows)-1]
	if last.Overflows != 0 {
		t.Errorf("queue size %d should not overflow", last.QueueSize)
	}
}

func TestTaggedTLBExtension(t *testing.T) {
	r, err := TaggedTLB(&Args{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tagged.TLBMisses >= r.Untagged.TLBMisses {
		t.Errorf("tagged TLB should miss less: %d vs %d", r.Tagged.TLBMisses, r.Untagged.TLBMisses)
	}
	if r.Tagged.RuntimeMS >= r.Untagged.RuntimeMS {
		t.Errorf("tagged TLB should run faster: %.1f vs %.1f ms", r.Tagged.RuntimeMS, r.Untagged.RuntimeMS)
	}
	if r.Untagged.TLBFlushes <= r.Tagged.TLBFlushes {
		t.Errorf("untagged design should flush more: %d vs %d", r.Untagged.TLBFlushes, r.Tagged.TLBFlushes)
	}
}

func TestPoolsExtension(t *testing.T) {
	r, err := Pools(&Args{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.PooledUS >= row.GlobalUS {
			t.Errorf("ncpu=%d: pooled shootdown (%.0f) should beat machine-wide (%.0f)",
				row.NCPUs, row.PooledUS, row.GlobalUS)
		}
	}
	// Pooled cost must stay roughly flat while global cost grows.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.GlobalUS < 2*first.GlobalUS {
		t.Errorf("machine-wide cost did not scale: %.0f -> %.0f", first.GlobalUS, last.GlobalUS)
	}
	if last.PooledUS > 1.5*first.PooledUS {
		t.Errorf("pooled cost should stay flat: %.0f -> %.0f", first.PooledUS, last.PooledUS)
	}
}

func TestPageoutExtension(t *testing.T) {
	r, err := Pageout(&Args{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !r.DataIntact {
		t.Fatal("data corrupted across pageout round trips")
	}
	if r.PagesEvicted == 0 || r.PageIns == 0 {
		t.Fatalf("pageout never happened: %+v", r)
	}
	// The paper's claim: the shootdown is a small fraction of the pageout.
	if r.ShootdownShare > 0.10 {
		t.Errorf("shootdown share of pageout = %.1f%%, expected well under 10%%", 100*r.ShootdownShare)
	}
}

// A trace ring that wrapped leaves Figure 2's and Tables 1-4's counts and
// means incomplete, so each says so. Nothing drops at the pinned seed, so
// only this test sees the note.
func TestDocsWarnOnDroppedTraceRecords(t *testing.T) {
	mach := workload.AppResult{Name: "Mach", TraceDropped: 3}
	parthenon := workload.AppResult{Name: "Parthenon", TraceDropped: 4}
	tables := TablesResult{Apps: []workload.AppResult{mach, parthenon}}
	const want = "WARNING: 7 trace records lost to buffer wraparound — means above are incomplete"
	for _, c := range []struct {
		name string
		doc  Doc
	}{
		{"fig2", Fig2Result{workload.BasicCostResult{Dropped: 7}}.Doc()},
		{"table1", Table1Result{Mach: [2]workload.AppResult{mach, {}}, Parthenon: [2]workload.AppResult{{}, parthenon}}.Doc()},
		{"table2", tables.Table2Doc()},
		{"table3", tables.Table3Doc()},
		{"table4", tables.Table4Doc()},
		{"overhead", tables.OverheadDoc()},
	} {
		if !slices.Contains(c.doc.Notes, want) {
			t.Errorf("%s: notes %q lack %q", c.name, c.doc.Notes, want)
		}
	}
}
