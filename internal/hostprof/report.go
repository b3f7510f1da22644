package hostprof

// The host-cost/v1 artifact: one JSON document per hostcost run carrying
// provenance, per-phase host seconds and allocator deltas, and the
// per-function and per-package attribution tables. tlbtrace hostcost renders and validates
// it; scripts/bench.sh embeds it in BENCH_<n>.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Format is the artifact format tag.
const Format = "host-cost/v1"

// Provenance records the environment the measurement ran in, so trend
// tables can flag environment changes before blaming the code.
type Provenance struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit,omitempty"`
}

// SiteCost is one attribution row within a phase: the allocations charged
// to Site (a function, "shootdown/internal/mem.New" or, for stacks with no
// module frame, "runtime.malg") or, in a package table, to functions in
// Site (a package path).
type SiteCost struct {
	Site    string `json:"site"`
	Package string `json:"package"`
	Count   int64  `json:"count"`
	Bytes   int64  `json:"bytes"`
}

// PhaseCost is one measured phase: real seconds and allocator deltas from
// the host, attribution tables from the runtime's memory profile.
type PhaseCost struct {
	Name string `json:"name"`
	// WallSeconds is taken under full allocation profiling, so it
	// overstates an unprofiled run; bench/ owns end-to-end wall time.
	WallSeconds float64 `json:"wall_seconds"`
	// MeasuredBytes/Mallocs are runtime.ReadMemStats deltas across the
	// phase (TotalAlloc / Mallocs).
	MeasuredBytes int64 `json:"measured_bytes"`
	Mallocs       int64 `json:"mallocs"`
	// CountedBytes/CountedOps are the bytes and objects the memory profile
	// attributed to module functions: the sums of Sites and of Packages.
	CountedBytes int64      `json:"counted_bytes"`
	CountedOps   int64      `json:"counted_ops"`
	Sites        []SiteCost `json:"sites,omitempty"`
	Packages     []SiteCost `json:"packages,omitempty"`
	Err          string     `json:"err,omitempty"`
}

// coverage is the percentage of the phase's measured bytes attributed to
// module functions (0 when nothing was measured).
func (p *PhaseCost) coverage() float64 {
	if p.MeasuredBytes <= 0 {
		return 0
	}
	return 100 * float64(p.CountedBytes) / float64(p.MeasuredBytes)
}

// Report is the host-cost/v1 document.
type Report struct {
	Format     string `json:"format"`
	Provenance `json:"provenance"`
	// Headline names the phase CoveragePct is computed on.
	Headline    string      `json:"headline"`
	CoveragePct float64     `json:"coverage_pct"`
	Phases      []PhaseCost `json:"phases"`
}

// phase returns the named phase, or nil.
func (r *Report) phase(name string) *PhaseCost {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// HeadlinePhase returns the phase coverage is computed on, or nil.
func (r *Report) HeadlinePhase() *PhaseCost { return r.phase(r.Headline) }

// Load reads a host-cost/v1 artifact from path.
func Load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: not a host-cost report: %w", path, err)
	}
	return &r, nil
}

// Write emits the artifact as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Validate checks internal consistency: format tag, provenance, phase
// shape, attribution tables that sum to the counted totals, a resolvable
// headline, and that the recorded coverage matches a recomputation from
// the headline phase.
func (r *Report) Validate() error {
	if r.Format != Format {
		return fmt.Errorf("format %q, want %q", r.Format, Format)
	}
	if r.GoVersion == "" || r.GOMAXPROCS <= 0 {
		return fmt.Errorf("missing provenance (go_version %q, gomaxprocs %d)", r.GoVersion, r.GOMAXPROCS)
	}
	if len(r.Phases) == 0 {
		return fmt.Errorf("no phases")
	}
	seen := map[string]bool{}
	for _, p := range r.Phases {
		if p.Name == "" {
			return fmt.Errorf("unnamed phase")
		}
		if seen[p.Name] {
			return fmt.Errorf("duplicate phase %q", p.Name)
		}
		seen[p.Name] = true
		if p.WallSeconds < 0 || p.MeasuredBytes < 0 || p.Mallocs < 0 || p.CountedBytes < 0 {
			return fmt.Errorf("phase %q: negative measurement", p.Name)
		}
		for _, rows := range [][]SiteCost{p.Sites, p.Packages} {
			var bytes, count int64
			for _, sc := range rows {
				if sc.Count < 0 || sc.Bytes < 0 {
					return fmt.Errorf("phase %q row %q: negative tally", p.Name, sc.Site)
				}
				bytes += sc.Bytes
				count += sc.Count
			}
			if bytes != p.CountedBytes || count != p.CountedOps {
				return fmt.Errorf("phase %q: counted %d B / %d objects but its rows sum to %d B / %d objects",
					p.Name, p.CountedBytes, p.CountedOps, bytes, count)
			}
		}
	}
	hp := r.HeadlinePhase()
	if hp == nil {
		return fmt.Errorf("headline phase %q not among the recorded phases", r.Headline)
	}
	if want := hp.coverage(); math.Abs(r.CoveragePct-want) > 0.1 {
		return fmt.Errorf("coverage_pct %.2f does not match headline phase (%.2f)", r.CoveragePct, want)
	}
	return nil
}

// CheckCoverage fails unless every phase attributes between minPct and
// 200−minPct percent of its measured bytes (99 allows 1% either way): a
// phase outside that band has allocations the profile walk lost or
// double-counted.
func (r *Report) CheckCoverage(minPct float64) error {
	for i := range r.Phases {
		p := &r.Phases[i]
		if p.MeasuredBytes == 0 {
			return fmt.Errorf("phase %q measured zero bytes", p.Name)
		}
		if cov := p.coverage(); cov < minPct || cov > 200-minPct {
			return fmt.Errorf("phase %q attributes %.2f%% of its measured bytes (%d of %d), outside %.0f–%.0f%%",
				p.Name, cov, p.CountedBytes, p.MeasuredBytes, minPct, 200-minPct)
		}
	}
	return nil
}

// Render formats the report for terminals: a provenance line, the
// per-phase table, and the headline phase's top-N functions and packages.
func (r *Report) Render(topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s · %s · GOMAXPROCS=%d · %d CPUs", r.Format, r.GoVersion, r.GOMAXPROCS, r.NumCPU)
	if r.Commit != "" {
		fmt.Fprintf(&b, " · commit %s", r.Commit)
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-12s %9s %13s %12s %13s %9s\n",
		"phase", "wall s", "measured MB", "mallocs", "attrib MB", "coverage")
	for _, p := range r.Phases {
		cov := "-"
		if p.MeasuredBytes > 0 {
			cov = fmt.Sprintf("%7.2f%%", p.coverage())
		}
		mark := ""
		if p.Name == r.Headline {
			mark = "  «headline»"
		}
		if p.Err != "" {
			mark += "  ERR: " + p.Err
		}
		fmt.Fprintf(&b, "%-12s %9.3f %13.1f %12d %13.1f %9s%s\n",
			p.Name, p.WallSeconds, mb(p.MeasuredBytes), p.Mallocs, mb(p.CountedBytes), cov, mark)
	}
	hp := r.HeadlinePhase()
	if hp == nil {
		return b.String()
	}
	for _, t := range []struct {
		what string
		rows []SiteCost
	}{{"functions", hp.Sites}, {"packages", hp.Packages}} {
		if len(t.rows) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\ntop %d allocating %s (%s phase, of %d):\n", min(topN, len(t.rows)), t.what, hp.Name, len(t.rows))
		fmt.Fprintf(&b, "  %-4s %13s %8s %12s  %s\n", "rank", "bytes", "share", "allocs", "site")
		for i, sc := range t.rows {
			if i >= topN {
				break
			}
			share := "-"
			if hp.MeasuredBytes > 0 {
				share = fmt.Sprintf("%7.2f%%", 100*float64(sc.Bytes)/float64(hp.MeasuredBytes))
			}
			fmt.Fprintf(&b, "  %-4d %13d %8s %12d  %s\n", i+1, sc.Bytes, share, sc.Count, sc.Site)
		}
	}
	return b.String()
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
