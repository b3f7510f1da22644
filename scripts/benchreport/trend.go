package main

// The trend subcommand: read every BENCH_<n>.json in a directory and print
// each benchmark's ns/op, B/op, and allocs/op trajectory across reports —
// the long view the 10× speed overhaul steers by. Provenance changes (go
// version, GOMAXPROCS, commit) between consecutive reports are flagged, so
// a step in the curve can be told apart from a toolchain or machine change.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchFileRE matches the trajectory files; the captured group orders them.
var benchFileRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// trendReport is one loaded trajectory point.
type trendReport struct {
	Name string // file name, "BENCH_3.json"
	N    int    // trajectory index
	Doc  *benchDoc
}

// loadTrend reads every BENCH_<n>.json in dir, in numeric order.
func loadTrend(dir string) ([]trendReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []trendReport
	for _, e := range entries {
		m := benchFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		doc, err := loadDoc(dir + "/" + e.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, trendReport{Name: e.Name(), N: n, Doc: doc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].N < out[j].N })
	return out, nil
}

// provenanceLine summarizes one report's environment for the header.
func provenanceLine(d *benchDoc) string {
	parts := []string{d.GoVersion}
	if d.GoVersion == "" {
		parts = []string{"go?"}
	}
	if d.GoMaxProcs > 0 {
		parts = append(parts, fmt.Sprintf("GOMAXPROCS=%d", d.GoMaxProcs))
	}
	if d.Commit != "" {
		parts = append(parts, d.Commit)
	}
	return strings.Join(parts, " · ")
}

// envChanged reports whether two consecutive reports ran in different
// environments — the "before you blame the code" flag.
func envChanged(a, b *benchDoc) bool {
	return a.GoVersion != b.GoVersion ||
		(a.GoMaxProcs != 0 && b.GoMaxProcs != 0 && a.GoMaxProcs != b.GoMaxProcs)
}

// trendValue formats one metric cell compactly (benchmark values span
// nanoseconds to gigabytes).
func trendValue(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

// formatTrend renders the trajectory table: one row per (benchmark,
// metric), one column per report, and the overall first→last delta.
func formatTrend(reports []trendReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark trajectory (%d reports)\n\n", len(reports))
	for i, r := range reports {
		flag := ""
		if i > 0 && envChanged(reports[i-1].Doc, r.Doc) {
			flag = "  « environment changed"
		}
		fmt.Fprintf(&b, "  %-14s %s%s\n", r.Name, provenanceLine(r.Doc), flag)
	}
	b.WriteString("\n")

	// Benchmarks in first-appearance order; names normalized per report.
	var names []string
	seen := map[string]bool{}
	byReport := make([]map[string]benchLine, len(reports))
	for i, r := range reports {
		byReport[i] = map[string]benchLine{}
		for _, bl := range r.Doc.Benchmarks {
			name := normName(bl.Name, r.Doc.GoMaxProcs)
			byReport[i][name] = bl
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}

	fmt.Fprintf(&b, "%-44s %-10s", "benchmark", "metric")
	for _, r := range reports {
		fmt.Fprintf(&b, " %10s", strings.TrimSuffix(r.Name, ".json"))
	}
	fmt.Fprintf(&b, " %9s\n", "overall")
	for _, name := range names {
		for _, m := range comparedMetrics {
			fmt.Fprintf(&b, "%-44s %-10s", name, m)
			var first, last float64
			haveFirst, haveLast := false, false
			for i := range reports {
				bl, okB := byReport[i][name]
				v, ok := 0.0, false
				if okB {
					v, ok = bl.Metrics[m]
				}
				fmt.Fprintf(&b, " %10s", trendValue(v, ok))
				if ok {
					if !haveFirst {
						first, haveFirst = v, true
					}
					last, haveLast = v, true
				}
			}
			overall := "-"
			if haveFirst && haveLast && first != last {
				pct := pctChange(first, last)
				if math.IsInf(pct, 1) {
					overall = "+inf"
				} else {
					overall = fmt.Sprintf("%+.1f%%", pct)
				}
			} else if haveFirst {
				overall = "±0.0%"
			}
			fmt.Fprintf(&b, " %9s\n", overall)
		}
	}
	return b.String()
}

// cmdTrend prints the BENCH_<n>.json trajectory table.
func cmdTrend(args []string) error {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory holding the BENCH_<n>.json trajectory")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: benchreport trend [-dir path]")
	}
	reports, err := loadTrend(*dir)
	if err != nil {
		return err
	}
	if len(reports) == 0 {
		return fmt.Errorf("no BENCH_<n>.json reports in %s", *dir)
	}
	fmt.Print(formatTrend(reports))
	return nil
}
