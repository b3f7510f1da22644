// Package simconcurrency forbids real Go concurrency in simulated
// packages. The discrete-event engine in internal/sim owns all
// concurrency: it multiplexes simulated processors onto iter.Pull
// coroutines it alone creates, serializes every step in virtual time, and
// is the reason a 16-CPU interrupt protocol replays deterministically from
// a seed. A stray goroutine, channel, or sync/atomic primitive anywhere
// else would reintroduce host-scheduler ordering into results the engine
// carefully keeps virtual, and would invisibly break the determinism the
// fault campaigns (DESIGN.md §9) rely on. A coroutine of its own
// (iter.Pull or iter.Pull2) would not race, but it would hand control
// back and forth behind the engine's back — host-side control flow the
// scheduler, its step cursor, and snapshots cannot see. Simulated code
// expresses concurrency only through sim.Engine.Spawn and blocking
// through sim.Proc.
package simconcurrency

import (
	"go/ast"
	"go/types"

	"shootdown/internal/analysis"
)

// Analyzer is the simconcurrency analysis.
var Analyzer = &analysis.Analyzer{
	Name: "simconcurrency",
	Doc: "forbid go statements, channels, sync/atomic primitives, and iter.Pull " +
		"coroutines outside internal/sim, whose virtual-time scheduler owns all concurrency",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in simulated code: spawn simulated processors with sim.Engine.Spawn instead")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send in simulated code: the virtual-time scheduler owns all concurrency")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement in simulated code: the virtual-time scheduler owns all concurrency")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Reportf(n.Pos(), "channel receive in simulated code: the virtual-time scheduler owns all concurrency")
				}
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type in simulated code: the virtual-time scheduler owns all concurrency")
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(), "range over a channel in simulated code: the virtual-time scheduler owns all concurrency")
					}
				}
			case *ast.SelectorExpr:
				checkPackageUse(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkPackageUse flags any qualified reference into sync or sync/atomic,
// and references to iter's coroutine constructors.
func checkPackageUse(pass *analysis.Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch path := pkgName.Imported().Path(); path {
	case "sync", "sync/atomic":
		pass.Reportf(sel.Pos(),
			"use of %s.%s in simulated code: host-level synchronization has no meaning in virtual time; use machine.SpinLock or sim.Proc blocking",
			path, sel.Sel.Name)
	case "iter":
		if name := sel.Sel.Name; name == "Pull" || name == "Pull2" {
			pass.Reportf(sel.Pos(),
				"use of iter.%s in simulated code: a coroutine is host-side control flow the virtual-time scheduler cannot see; spawn a proc with sim.Engine.Spawn instead",
				name)
		}
	}
}
