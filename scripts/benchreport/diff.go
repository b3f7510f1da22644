package main

// The diff subcommand: compare two BENCH_<n>.json reports and gate CI on
// regressions. Only the benchmarks present in both reports are compared,
// so the quick subset check.sh snapshots gates against the matching rows
// of the full committed report. Higher is worse for every compared metric
// (ns/op, B/op, allocs/op), but only B/op and allocs/op are gated: they do
// not depend on host speed, while ns/op drifts with the machine a report
// was taken on (bench/'s compare, with repeated samples, is the timing
// gate). The paper's custom metrics are descriptive, not gated, because
// their direction depends on the experiment.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// comparedMetrics are compared and printed in this order; for each, a
// higher value in the new report is worse.
var comparedMetrics = []string{"ns/op", "B/op", "allocs/op"}

// gatedMetrics are the compared metrics whose regressions fail the gate.
var gatedMetrics = map[string]bool{"B/op": true, "allocs/op": true}

// delta is one (benchmark, metric) comparison row.
type delta struct {
	Name   string
	Metric string
	Old    float64
	New    float64
	// Pct is the relative change in percent; +Inf when Old is zero and
	// New is not (there is no baseline to scale by).
	Pct float64
}

// regressed reports whether this row is a gated regression past the
// threshold.
func (d delta) regressed(thresholdPct float64) bool {
	return gatedMetrics[d.Metric] && d.Pct > thresholdPct
}

// pctChange returns the relative change in percent, +Inf for a zero
// baseline growing, and 0 when both sides are zero.
func pctChange(oldV, newV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (newV - oldV) / oldV * 100
}

// normName strips the -GOMAXPROCS suffix go test appends on multi-CPU
// machines, so reports produced on different machines still align. When
// the report recorded its GOMAXPROCS, only that exact suffix is stripped —
// a sub-benchmark whose own name ends in a dashed number
// ("BenchmarkScale/cpus-32") must survive intact. Reports predating the
// provenance field fall back to stripping any trailing integer, the old
// (over-eager) behavior, since nothing better is known about them.
func normName(name string, procs int) string {
	if procs > 0 {
		return strings.TrimSuffix(name, fmt.Sprintf("-%d", procs))
	}
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// compare builds the delta rows for the benchmarks both reports carry, in
// the old report's order (deterministic output), and returns how many
// benchmarks matched. Names are compared with the -GOMAXPROCS suffix
// stripped (each report's own recorded GOMAXPROCS).
func compare(oldDoc, newDoc *benchDoc) (rows []delta, matched int) {
	newBy := map[string]benchLine{}
	for _, b := range newDoc.Benchmarks {
		newBy[normName(b.Name, newDoc.GoMaxProcs)] = b
	}
	for _, ob := range oldDoc.Benchmarks {
		name := normName(ob.Name, oldDoc.GoMaxProcs)
		nb, ok := newBy[name]
		if !ok {
			continue
		}
		matched++
		for _, m := range comparedMetrics {
			ov, okOld := ob.Metrics[m]
			nv, okNew := nb.Metrics[m]
			if !okOld || !okNew {
				continue
			}
			rows = append(rows, delta{Name: name, Metric: m, Old: ov, New: nv, Pct: pctChange(ov, nv)})
		}
	}
	return rows, matched
}

// gate returns the rows that fail the build: regressions past the
// threshold whose benchmark is not named in the allow set.
func gate(rows []delta, thresholdPct float64, allow map[string]bool) []delta {
	var out []delta
	for _, d := range rows {
		if d.regressed(thresholdPct) && !allow[d.Name] {
			out = append(out, d)
		}
	}
	return out
}

// loadAllow reads the allow file: one benchmark name per line, '#'
// comments and blank lines ignored. A missing file is an empty set.
func loadAllow(path string) (map[string]bool, error) {
	allow := map[string]bool{}
	if path == "" {
		return allow, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return allow, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		allow[line] = true
	}
	return allow, sc.Err()
}

// formatDeltas renders the per-benchmark delta table. Rows that regressed
// past the threshold are tagged, and allowed ones say so.
func formatDeltas(rows []delta, thresholdPct float64, allow map[string]bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %-10s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	for _, d := range rows {
		tag := ""
		if d.regressed(thresholdPct) {
			tag = "  REGRESSED"
			if allow[d.Name] {
				tag = "  regressed (allowed)"
			}
		}
		pct := fmt.Sprintf("%+8.1f%%", d.Pct)
		if math.IsInf(d.Pct, 1) {
			pct = "     +inf"
		}
		fmt.Fprintf(&b, "%-44s %-10s %14.1f %14.1f %s%s\n", d.Name, d.Metric, d.Old, d.New, pct, tag)
	}
	return b.String()
}

// loadDoc reads one BENCH_<n>.json report.
func loadDoc(path string) (*benchDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: not a benchmark report: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return &doc, nil
}

// cmdDiff compares two reports and, with -gate, fails on regressions.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 50, "regression threshold in percent for the gated metrics, B/op and allocs/op")
	allowPath := fs.String("allow", "", "file naming benchmarks whose regressions are intentional, one per line")
	gateIt := fs.Bool("gate", false, "exit 1 when any unallowed benchmark regressed past the threshold")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchreport diff [-threshold pct] [-allow file] [-gate] old.json new.json")
	}
	oldDoc, err := loadDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	newDoc, err := loadDoc(fs.Arg(1))
	if err != nil {
		return err
	}
	allow, err := loadAllow(*allowPath)
	if err != nil {
		return err
	}
	rows, matched := compare(oldDoc, newDoc)
	if matched == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", fs.Arg(0), fs.Arg(1))
	}
	fmt.Printf("benchreport diff: %s -> %s (%d benchmarks compared, threshold %.0f%%)\n\n",
		fs.Arg(0), fs.Arg(1), matched, *threshold)
	fmt.Print(formatDeltas(rows, *threshold, allow))
	failing := gate(rows, *threshold, allow)
	if len(failing) == 0 {
		fmt.Printf("\nno regressions past %.0f%%\n", *threshold)
		return nil
	}
	fmt.Printf("\n%d regression(s) past %.0f%%:\n", len(failing), *threshold)
	for _, d := range failing {
		fmt.Printf("  %s %s: %.1f -> %.1f (%+.1f%%)\n", d.Name, d.Metric, d.Old, d.New, d.Pct)
	}
	if *gateIt {
		return fmt.Errorf("benchmark regression gate failed (add the benchmark to the allow file if intentional)")
	}
	return nil
}
