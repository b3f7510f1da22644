// Package hookpurity proves observation hooks free of simulation effects.
// The repo's profiler, tracer, and flight recorder are sold as
// zero-perturbation: attaching them must not change a run's outcome. That
// holds only if every function reachable from a hook neither writes
// simulated state, nor consumes randomness from a seeded stream, nor
// reads the host clock. A hook that bumps a TLB counter or draws from an
// engine stream silently makes traced runs diverge from untraced ones —
// the worst kind of heisenbug in a determinism-first simulator.
//
// Hook roots, checked through their transitive effect summaries:
//
//   - every function declared in a package named profile or trace (the
//     observation layers themselves);
//   - every method named Snapshot (snapshots are replayed for restore and
//     must not perturb the state they capture);
//   - function literals passed to a function in a trace or profile
//     package (flight-recorder providers registered with
//     Recorder.Register);
//   - function literals assigned to observation fields: func-typed struct
//     fields named On* (oracle.Oracle.OnViolation).
//
// A hook may freely write its own accumulators — state owned by the
// observation packages (profile, trace, snap, stats, and the export
// layers) is not "simulated state". The live set is the packages that
// carry machine and workload state: sim, machine, tlb, mem, ptable,
// pmap, vm, core, kernel, baseline, workload, fault, oracle, explore,
// experiments.
//
// Propagation follows the static call graph only (see package summary);
// calls through function values and interface methods are not chased, so
// a hook laundering a write through a stored closure escapes this
// analyzer. Findings anchor at the offending statement or call site in
// the current package, naming the callee chain entry that introduced the
// effect. Deliberate exceptions (explore's stop-on-violation hook, which
// exists to halt the engine) carry //lint:allow with a justification.
package hookpurity

import (
	"go/ast"
	"go/types"
	"strings"

	"shootdown/internal/analysis"
	"shootdown/internal/analysis/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "hookpurity",
	Doc: "functions reachable from profile/trace/flight-recorder hooks and Snapshot " +
		"methods must not write simulated state, draw randomness, or read the host clock",
	Requires: []*analysis.Analyzer{summary.Analyzer},
	Run:      run,
}

// liveSet names the packages whose state constitutes the simulation; a
// hook writing into any of them perturbs the run it is observing.
var liveSet = map[string]bool{
	"sim": true, "machine": true, "tlb": true, "mem": true, "ptable": true,
	"pmap": true, "vm": true, "core": true, "kernel": true, "baseline": true,
	"workload": true, "fault": true, "oracle": true, "explore": true,
	"experiments": true,
}

// observationPkgs are the packages whose every declared function is a
// hook root.
var observationPkgs = map[string]bool{"profile": true, "trace": true}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:     pass,
		ix:       summary.NewIndex(pass.ResultOf[summary.Analyzer.Name]),
		reported: map[string]bool{},
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if observationPkgs[pass.Pkg.Name()] {
				c.checkSummary(c.ix.Func(fn.FullName()), fn.Name())
			} else if fn.Name() == "Snapshot" && fd.Recv != nil {
				c.checkSummary(c.ix.Func(fn.FullName()),
					"("+summary.ReceiverTypeName(fn)+").Snapshot")
			}
			c.findLitRoots(fd.Body)
		}
	}
	return nil, nil
}

type checker struct {
	pass     *analysis.Pass
	ix       *summary.Index
	reported map[string]bool
}

// findLitRoots walks a body for function literals installed as hooks:
// arguments to trace/profile functions and assignments to observation
// fields.
func (c *checker) findLitRoots(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := summary.Callee(c.pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil || !observationPkgs[fn.Pkg().Name()] {
				return true
			}
			for _, arg := range n.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					c.checkLit(lit, fn.Pkg().Name()+"."+fn.Name()+" hook")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit)
				if !ok {
					continue
				}
				if name, ok := hookField(c.pass.TypesInfo, lhs); ok {
					c.checkLit(lit, "hook assigned to "+name)
				}
			}
		}
		return true
	})
}

// hookField reports whether an assignment target selects a func-typed
// observation field (On*).
func hookField(info *types.Info, lhs ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return "", false
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return "", false
	}
	name := v.Name()
	if strings.HasPrefix(name, "On") && len(name) > 2 && name[2] >= 'A' && name[2] <= 'Z' {
		return name, true
	}
	return "", false
}

// checkLit expands a hook literal's direct summary through the call graph
// and checks it.
func (c *checker) checkLit(lit *ast.FuncLit, desc string) {
	s := c.ix.Expand(summary.Direct(c.pass.TypesInfo, lit.Body))
	c.checkSummary(s, desc)
}

// checkSummary reports every simulation effect a hook summary carries.
func (c *checker) checkSummary(s *summary.FuncSummary, desc string) {
	if s == nil {
		return
	}
	for key, e := range s.Mutates {
		if liveSet[pkgOf(key)] {
			c.report(e, desc+" must not write simulated state: writes "+key)
		}
	}
	for key, e := range s.Draws {
		c.report(e, desc+" must not consume randomness: draws from "+key)
	}
	for key, e := range s.ReadsClock {
		c.report(e, desc+" must not read the host clock: calls "+key)
	}
}

func (c *checker) report(e summary.Effect, msg string) {
	if e.Via != "" {
		msg += " (via " + e.Via + ")"
	}
	key := c.pass.Fset.Position(e.Pos).String() + "|" + msg
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Report(analysis.Diagnostic{Pos: e.Pos, Message: msg})
}

// pkgOf extracts the package part of a summary state key
// ("pkg.Type.field", "pkg.Type", or "pkg.var").
func pkgOf(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return key
}
