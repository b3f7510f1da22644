// Package driver runs the shootdownlint analyzers over the module. It is
// the offline counterpart of x/tools' multichecker: it loads packages with
// internal/analysis/load, runs each analyzer over the packages in its
// scope in dependency order (so cross-package summaries flow from imports
// to importers), applies //lint:allow suppressions, and renders the
// surviving diagnostics as text or, with -json, as a deterministic JSON
// array.
//
// The suite is layered on the summary pseudo-analyzer: it runs first over
// every package, reports nothing, and publishes per-function interprocedural
// effect summaries that the analyzers listing it in Requires read through
// Pass.ResultOf. Within one package the analyzers run in Analyzers order,
// so a required analyzer's result for a package is always available before
// any analyzer that requires it (validated at startup).
//
// Each analyzer checks an invariant that only holds in part of the tree,
// so each has a scope — the set of packages it patrols:
//
//   - simdeterminism and simconcurrency cover every simulated package
//     (the protocol, the machine model, and the workloads), but not
//     internal/sim itself — the engine is the one place real concurrency
//     and the host clock are allowed to live.
//   - ipldiscipline covers the packages that manipulate interrupt
//     priority: the machine model and everything that takes spin locks.
//   - lockorder covers the packages whose locks appear in the documented
//     lock order.
//   - snapcoverage and rngdiscipline cover the simulated packages plus
//     internal/sim: the engine's own chaos stream and snapshot are held
//     to the same replay discipline as the state they drive.
//   - hookpurity additionally covers internal/profile and internal/trace,
//     the observation layers whose zero-perturbation promise it checks.
//
// After the analyzers run, any //lint:allow directive that never matched
// a finding is itself reported (as analyzer "suppression"): a suppression
// that suppresses nothing is either stale or hiding a typo in its
// analyzer name.
package driver

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"

	"shootdown/internal/analysis"
	"shootdown/internal/analysis/hookpurity"
	"shootdown/internal/analysis/ipldiscipline"
	"shootdown/internal/analysis/load"
	"shootdown/internal/analysis/lockorder"
	"shootdown/internal/analysis/rngdiscipline"
	"shootdown/internal/analysis/simconcurrency"
	"shootdown/internal/analysis/simdeterminism"
	"shootdown/internal/analysis/snapcoverage"
	"shootdown/internal/analysis/summary"
)

// Analyzers is the suite, in the order diagnostics are attributed. Any
// analyzer must appear after everything in its Requires list.
var Analyzers = []*analysis.Analyzer{
	summary.Analyzer,
	simdeterminism.Analyzer,
	simconcurrency.Analyzer,
	ipldiscipline.Analyzer,
	lockorder.Analyzer,
	snapcoverage.Analyzer,
	hookpurity.Analyzer,
	rngdiscipline.Analyzer,
}

// simulated is every package that runs in virtual time. internal/sim is
// deliberately absent: the engine implements virtual time out of real
// concurrency and is covered by `go test -race` instead.
var simulated = []string{
	"baseline", "core", "experiments", "fault", "kernel", "machine",
	"mem", "oracle", "pmap", "ptable", "snap", "tlb", "vm", "workload",
}

// withSim is the simulated set plus the engine itself, for the analyzers
// whose invariants the engine must also uphold (snapshot completeness and
// RNG replay discipline).
var withSim = append([]string{"sim"}, simulated...)

// scopes maps analyzer name -> the internal/<dir> packages it checks. A
// nil scope means every loaded package (the summary substrate, which must
// cover whatever any dependent analyzer can reach).
var scopes = map[string][]string{
	"summary":        nil,
	"simdeterminism": simulated,
	"simconcurrency": simulated,
	"ipldiscipline":  {"machine", "kernel", "core", "pmap", "vm", "baseline"},
	"lockorder":      {"core", "pmap", "vm", "kernel", "baseline"},
	"snapcoverage":   withSim,
	"hookpurity":     append([]string{"profile", "trace"}, withSim...),
	"rngdiscipline":  withSim,
}

// finding is one rendered diagnostic.
type finding struct {
	pos      token.Position
	analyzer string
	msg      string
}

// Main runs the driver with command-line args (excluding argv[0]) and
// returns the process exit code: 0 clean, 1 diagnostics reported, 2 usage
// or load failure.
func Main(args []string, stdout, stderr io.Writer) int {
	if err := validateRequires(); err != nil {
		fmt.Fprintf(stderr, "shootdownlint: %v\n", err)
		return 2
	}
	fs := flag.NewFlagSet("shootdownlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	audit := fs.Bool("suppressions", false, "list every //lint:allow suppression and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: shootdownlint [-list] [-suppressions] [-json] [packages]\n\n"+
			"Runs the shootdown static-analysis suite (see internal/analysis).\n"+
			"Patterns default to ./... and follow go-tool syntax for module-local packages.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range Analyzers {
			scope := "all packages"
			if s := scopes[a.Name]; s != nil {
				scope = "internal/{" + strings.Join(s, ",") + "}"
			}
			fmt.Fprintf(stdout, "%-16s %s\n\t(scope: %s)\n", a.Name, a.Doc, scope)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(".", true, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "shootdownlint: %v\n", err)
		return 2
	}
	if *audit {
		count := 0
		for _, pkg := range pkgs {
			idx := analysis.NewSuppressionIndex(pkg.Fset, pkg.Files)
			for _, s := range idx.Entries() {
				fmt.Fprintf(stdout, "%s:%d: %s: %s\n", s.Pos.Filename, s.Pos.Line, s.Analyzer, s.Reason)
				count++
			}
		}
		fmt.Fprintf(stdout, "%d suppression(s)\n", count)
		return 0
	}

	var findings []finding
	results := map[string]map[string]interface{}{}
	for _, a := range Analyzers {
		results[a.Name] = map[string]interface{}{}
	}
	for _, pkg := range pkgs {
		idx := analysis.NewSuppressionIndex(pkg.Fset, pkg.Files)
		for _, d := range idx.Malformed() {
			findings = append(findings, finding{pkg.Fset.Position(d.Pos), "suppression", d.Message})
		}
		for _, a := range Analyzers {
			if !inScope(a.Name, pkg.Path) {
				continue
			}
			var diags []analysis.Diagnostic
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
				Imported:  results[a.Name],
				ResultOf:  results,
			}
			result, err := a.Run(pass)
			if err != nil {
				fmt.Fprintf(stderr, "shootdownlint: %s: %s: %v\n", a.Name, pkg.Path, err)
				return 2
			}
			results[a.Name][pkg.Path] = result
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				if idx.Allowed(a.Name, pos) {
					continue
				}
				findings = append(findings, finding{pos, a.Name, d.Message})
			}
		}
		for _, s := range idx.Unused() {
			findings = append(findings, finding{s.Pos, "suppression",
				"unused //lint:allow " + s.Analyzer + ": no " + s.Analyzer +
					" finding on this or the next line; remove the stale suppression"})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		if a.analyzer != b.analyzer {
			return a.analyzer < b.analyzer
		}
		return a.msg < b.msg
	})
	if *asJSON {
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "shootdownlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", f.pos.Filename, f.pos.Line, f.pos.Column, f.msg, f.analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "shootdownlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// writeJSON renders findings as a sorted JSON array, one object per
// finding, stable across runs for diffing in CI.
func writeJSON(w io.Writer, findings []finding) error {
	type jsonFinding struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: f.pos.Filename, Line: f.pos.Line, Col: f.pos.Column,
			Analyzer: f.analyzer, Message: f.msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(out)
}

// validateRequires checks that every analyzer's requirements precede it
// in Analyzers, the invariant the per-package inner loop relies on.
func validateRequires() error {
	seen := map[string]bool{}
	for _, a := range Analyzers {
		for _, r := range a.Requires {
			if !seen[r.Name] {
				return fmt.Errorf("analyzer %s requires %s, which does not precede it in driver.Analyzers", a.Name, r.Name)
			}
			if sr := scopes[r.Name]; sr != nil {
				return fmt.Errorf("analyzer %s requires %s, whose scope is not all packages", a.Name, r.Name)
			}
		}
		seen[a.Name] = true
	}
	return nil
}

// inScope reports whether the analyzer covers the package. Import paths
// look like "shootdown/internal/core" (augmented packages) or
// "shootdown/internal/core_test" (external test packages); both map to the
// internal/<dir> scope entry. Analyzers with a nil scope cover everything.
func inScope(analyzer, path string) bool {
	scope, ok := scopes[analyzer]
	if ok && scope == nil {
		return true
	}
	path = strings.TrimSuffix(path, "_test")
	i := strings.Index(path, "internal/")
	if i < 0 {
		return false
	}
	dir := path[i+len("internal/"):]
	for _, s := range scope {
		if dir == s {
			return true
		}
	}
	return false
}
