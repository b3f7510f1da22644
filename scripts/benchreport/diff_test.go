package main

import (
	"math"
	"testing"
)

func doc(lines ...benchLine) *benchDoc {
	return &benchDoc{GoVersion: "gotest", Benchmarks: lines}
}

func line(name string, nsop, bop, allocs float64) benchLine {
	return benchLine{Name: name, Iters: 1, Metrics: map[string]float64{
		"ns/op": nsop, "B/op": bop, "allocs/op": allocs,
	}}
}

// A regression past the threshold fails the gate; one under it does not.
func TestGateThreshold(t *testing.T) {
	oldDoc := doc(line("BenchmarkA", 100, 10, 1), line("BenchmarkB", 100, 10, 1))
	newDoc := doc(line("BenchmarkA", 100, 20, 1), line("BenchmarkB", 100, 12, 1))
	rows, matched := compare(oldDoc, newDoc)
	if matched != 2 {
		t.Fatalf("matched = %d, want 2", matched)
	}
	failing := gate(rows, 50, nil)
	if len(failing) != 1 || failing[0].Name != "BenchmarkA" || failing[0].Metric != "B/op" {
		t.Fatalf("gate(50%%) = %+v, want only BenchmarkA B/op", failing)
	}
	if failing[0].Pct != 100 {
		t.Fatalf("BenchmarkA delta = %v%%, want 100%%", failing[0].Pct)
	}
}

// ns/op depends on the host, so it is compared and printed but never
// fails the gate, however far it moves; allocs/op is gated like B/op.
func TestGateIgnoresTiming(t *testing.T) {
	oldDoc := doc(line("BenchmarkA", 36.9, 10, 1))
	newDoc := doc(line("BenchmarkA", 71.4, 10, 3))
	rows := mustRows(t, oldDoc, newDoc)
	if len(rows) != 3 || rows[0].Metric != "ns/op" {
		t.Fatalf("rows = %+v, want ns/op, B/op, allocs/op", rows)
	}
	failing := gate(rows, 50, nil)
	if len(failing) != 1 || failing[0].Metric != "allocs/op" {
		t.Fatalf("gate = %+v, want only allocs/op", failing)
	}
}

// An allow-file entry suppresses the gate failure for that benchmark only.
func TestGateAllowFile(t *testing.T) {
	oldDoc := doc(line("BenchmarkA", 100, 10, 1), line("BenchmarkB", 100, 10, 1))
	newDoc := doc(line("BenchmarkA", 100, 30, 1), line("BenchmarkB", 100, 30, 1))
	failing := gate(mustRows(t, oldDoc, newDoc), 50, map[string]bool{"BenchmarkA": true})
	if len(failing) != 1 || failing[0].Name != "BenchmarkB" {
		t.Fatalf("gate with allow = %+v, want only BenchmarkB", failing)
	}
}

// Improvements never fail the gate, however large.
func TestGateIgnoresImprovements(t *testing.T) {
	oldDoc := doc(line("BenchmarkA", 1000, 800, 20))
	newDoc := doc(line("BenchmarkA", 10, 8, 0))
	if failing := gate(mustRows(t, oldDoc, newDoc), 50, nil); len(failing) != 0 {
		t.Fatalf("improvement failed the gate: %+v", failing)
	}
}

// Benchmarks present in only one report are skipped, not failed — the CI
// gate runs a quick subset against the full committed snapshot.
func TestCompareIntersectionOnly(t *testing.T) {
	oldDoc := doc(line("BenchmarkA", 100, 10, 1), line("BenchmarkOldOnly", 1, 1, 1))
	newDoc := doc(line("BenchmarkA", 100, 10, 1), line("BenchmarkNewOnly", 9999, 1, 1))
	rows, matched := compare(oldDoc, newDoc)
	if matched != 1 {
		t.Fatalf("matched = %d, want 1", matched)
	}
	for _, d := range rows {
		if d.Name != "BenchmarkA" {
			t.Fatalf("unexpected comparison row %+v", d)
		}
	}
}

// A zero baseline growing has no percentage to scale by; it must still
// register as a regression rather than slipping through as 0%.
func TestZeroBaseline(t *testing.T) {
	oldDoc := doc(line("BenchmarkA", 100, 0, 0))
	newDoc := doc(line("BenchmarkA", 100, 64, 2))
	failing := gate(mustRows(t, oldDoc, newDoc), 50, nil)
	if len(failing) != 2 {
		t.Fatalf("gate = %+v, want B/op and allocs/op regressions", failing)
	}
	for _, d := range failing {
		if !math.IsInf(d.Pct, 1) {
			t.Fatalf("%s delta = %v, want +Inf", d.Metric, d.Pct)
		}
	}
	if pctChange(0, 0) != 0 {
		t.Fatalf("pctChange(0,0) = %v, want 0", pctChange(0, 0))
	}
}

// The -GOMAXPROCS suffix must not prevent alignment across machines.
func TestNormName(t *testing.T) {
	oldDoc := doc(line("BenchmarkA", 100, 10, 1))
	newDoc := doc(line("BenchmarkA-8", 100, 10, 1))
	newDoc.GoMaxProcs = 8
	_, matched := compare(oldDoc, newDoc)
	if matched != 1 {
		t.Fatalf("suffixed name did not align: matched = %d, want 1", matched)
	}
	if got := normName("BenchmarkA", 8); got != "BenchmarkA" {
		t.Fatalf("normName mangled an unsuffixed name: %q", got)
	}
}

// A sub-benchmark whose own name ends in a dashed number must survive
// normalization when the report recorded its GOMAXPROCS: only the exact
// "-<procs>" suffix is machine noise. Reports without the provenance field
// keep the legacy any-trailing-integer strip.
func TestNormNameDashedSubBenchmarks(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		want  string
	}{
		{"BenchmarkScale/cpus-32", 8, "BenchmarkScale/cpus-32"},
		{"BenchmarkScale/cpus-32-8", 8, "BenchmarkScale/cpus-32"},
		{"BenchmarkScale/cpus-8", 8, "BenchmarkScale/cpus"},  // ambiguous: exact -procs match strips
		{"BenchmarkA-16", 8, "BenchmarkA-16"},                // different machine's suffix is NOT ours to strip
		{"BenchmarkScale/cpus-32", 0, "BenchmarkScale/cpus"}, // legacy fallback, over-eager by design
		{"BenchmarkA-notanum", 0, "BenchmarkA-notanum"},
		{"BenchmarkA", 0, "BenchmarkA"},
	}
	for _, c := range cases {
		if got := normName(c.name, c.procs); got != c.want {
			t.Errorf("normName(%q, %d) = %q, want %q", c.name, c.procs, got, c.want)
		}
	}
}

// Two dash-suffixed reports from machines with different GOMAXPROCS must
// still align on the same logical benchmark.
func TestCompareAcrossGoMaxProcs(t *testing.T) {
	oldDoc := doc(line("BenchmarkA-8", 100, 10, 1))
	oldDoc.GoMaxProcs = 8
	newDoc := doc(line("BenchmarkA-32", 100, 10, 1))
	newDoc.GoMaxProcs = 32
	_, matched := compare(oldDoc, newDoc)
	if matched != 1 {
		t.Fatalf("cross-GOMAXPROCS reports did not align: matched = %d, want 1", matched)
	}
}

func mustRows(t *testing.T, oldDoc, newDoc *benchDoc) []delta {
	t.Helper()
	rows, matched := compare(oldDoc, newDoc)
	if matched == 0 {
		t.Fatal("no benchmarks matched")
	}
	return rows
}
