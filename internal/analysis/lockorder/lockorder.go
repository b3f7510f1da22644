// Package lockorder machine-checks the simulator's documented spin-lock
// ordering. The paper's shootdown algorithm avoids deadlock by imposing a
// total order on the locks an initiator may hold simultaneously
// (Section 4: "a processor never holds an action lock while acquiring a
// pmap lock"); this reproduction documents the order in DESIGN.md as
//
//	vm.Map.lock  <  pmap.Pmap.lock  <  core.memberLock  <  shootdown action locks  <  kernel.schedLock
//
// (vm map lock first, scheduler run-queue lock last; the membership lock
// of the fail-stop/hot-plug layer sits between the pmap lock and the
// action locks, so an initiator holding the pmap lock may scan membership
// and then take action locks; the action locks of core.Shootdown and the
// postponed-action locks of the baseline strategy share one rank and are
// leaf locks with respect to each other — at most one may be held at a
// time).
//
// The analyzer tracks the multiset of documented locks held along each
// structural path of a function (Lock/Unlock on machine.SpinLock fields,
// including the `if l.TryLock(ex) { ... }` conditional-acquire shape) and
// reports:
//
//   - acquiring a lock whose rank is below a held lock's rank (an
//     inversion of the documented order);
//   - acquiring a lock at the same rank as a held lock (the documented
//     order makes same-rank locks leaves: holding two risks deadlock
//     against a processor acquiring them in the opposite order);
//   - a call, made while a documented lock is held, to a function that may
//     transitively acquire a lock at or below a held rank (may-acquire
//     sets come from the shared interprocedural substrate in
//     internal/analysis/summary, whose per-function Acquires summaries
//     propagate across packages in dependency order; interface-method
//     calls are resolved by method name against every summary seen so
//     far);
//   - Lock/TryLock on a machine.SpinLock that is not in the documented
//     table at all, when it happens inside the ordered packages — every
//     lock in the protocol's packages must have a documented place in the
//     order.
//
// Lock identity is structural: the (defining package name, field name)
// pair of the SpinLock field the method is invoked on, so
// s.actionLocks[cpu].Lock(ex) and pm.lock.Lock(ex) classify by the field,
// not the instance.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"shootdown/internal/analysis"
	"shootdown/internal/analysis/summary"
)

// Analyzer is the lockorder analysis.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "enforce the documented spin-lock order: vm map lock, then pmap lock, " +
		"then the shootdown membership lock, then shootdown action locks, " +
		"then the scheduler lock",
	Requires: []*analysis.Analyzer{summary.Analyzer},
	Run:      run,
}

// class is one documented lock class.
type class struct {
	rank int
	what string
}

// classes is the documented total order, keyed by "pkgname.fieldname" of
// the machine.SpinLock field. Matching is by package *name* (not path) so
// the analysistest fixture packages classify the same way the real tree
// does.
var classes = map[string]class{
	"vm.lock":          {10, "the vm map lock"},
	"pmap.lock":        {20, "the pmap lock"},
	"core.memberLock":  {25, "the shootdown membership lock"},
	"core.actionLocks": {30, "a shootdown action lock"},
	"baseline.locks":   {30, "a postponed-action lock"},
	"kernel.schedLock": {40, "the scheduler run-queue lock"},
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:     pass,
		reported: map[string]bool{},
		ix:       summary.NewIndex(pass.ResultOf[summary.Analyzer.Name]),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w := &walker{c: c}
				w.walkStmts(fd.Body.List, nil)
			}
		}
	}
	return nil, nil
}

type checker struct {
	pass     *analysis.Pass
	reported map[string]bool
	ix       *summary.Index // shared interprocedural summaries
}

func (c *checker) reportf(pos token.Pos, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	key := c.pass.Fset.Position(pos).String() + "\x00" + msg
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
}

// held is one held lock along the current path.
type held struct {
	key string
	pos token.Pos
}

// walker tracks the held multiset through a function body. The walk is
// structural and single-pass: branches are explored with copies of the
// held set, loop bodies once with the loop-entry set.
type walker struct {
	c *checker
}

// walkStmts threads the held set through a statement list, returning the
// set after the last statement.
func (w *walker) walkStmts(stmts []ast.Stmt, h []held) []held {
	for _, s := range stmts {
		h = w.walkStmt(s, h)
	}
	return h
}

func (w *walker) walkStmt(stmt ast.Stmt, h []held) []held {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List, h)
	case *ast.IfStmt:
		if s.Init != nil {
			h = w.walkStmt(s.Init, h)
		}
		thenH := h
		if key, ok := w.tryLockCond(s.Cond); ok {
			thenH = w.acquire(h, key, s.Cond.Pos())
		} else {
			h = w.walkExpr(s.Cond, h)
			thenH = h
		}
		w.walkStmts(s.Body.List, thenH)
		if s.Else != nil {
			w.walkStmt(s.Else, h)
		}
		// Join: locks conditionally acquired in a branch are dropped at
		// the join; within-branch acquisitions were already checked.
		return h
	case *ast.ForStmt:
		if s.Init != nil {
			h = w.walkStmt(s.Init, h)
		}
		h = w.walkExpr(s.Cond, h)
		w.walkStmts(s.Body.List, h)
		if s.Post != nil {
			w.walkStmt(s.Post, h)
		}
		return h
	case *ast.RangeStmt:
		h = w.walkExpr(s.X, h)
		w.walkStmts(s.Body.List, h)
		return h
	case *ast.SwitchStmt:
		if s.Init != nil {
			h = w.walkStmt(s.Init, h)
		}
		h = w.walkExpr(s.Tag, h)
		for _, cc := range s.Body.List {
			w.walkStmts(cc.(*ast.CaseClause).Body, h)
		}
		return h
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			h = w.walkStmt(s.Init, h)
		}
		for _, cc := range s.Body.List {
			w.walkStmts(cc.(*ast.CaseClause).Body, h)
		}
		return h
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, h)
	case *ast.DeferStmt:
		// A deferred Unlock releases at function exit: for ordering
		// purposes the lock stays held for the rest of the walk, so a
		// deferred release has no effect here. Other deferred calls are
		// checked against the empty held set (they run during unwind).
		if w.lockClass(s.Call) == nil {
			w.walkExpr(s.Call, nil)
		}
		return h
	default:
		return w.walkNode(stmt, h)
	}
}

// walkExpr applies acquisition/release/call effects of one expression.
func (w *walker) walkExpr(e ast.Expr, h []held) []held {
	if e == nil {
		return h
	}
	return w.walkNode(e, h)
}

// walkNode scans a flat statement or expression for lock operations and
// calls, in source order.
func (w *walker) walkNode(n ast.Node, h []held) []held {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate scope; walked when invoked is out of scope here
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op := w.lockClass(call); op != nil {
			switch op.method {
			case "Lock":
				h = w.acquire(h, op.key, call.Pos())
			case "TryLock":
				// Outside the `if l.TryLock(ex)` shape the result may be
				// ignored; acquiring here would poison the rest of the
				// path, so only the conditional shape tracks it.
			case "Unlock":
				h = release(h, op.key)
			}
			return true
		}
		w.checkCall(call, h)
		return true
	})
	return h
}

// acquire checks one acquisition against the held set and returns the
// extended set.
func (w *walker) acquire(h []held, key string, pos token.Pos) []held {
	cl, documented := classes[key]
	if !documented {
		w.c.reportf(pos,
			"acquisition of undocumented spin lock %s: every lock in the ordered packages must have a place in the documented lock order", key)
		return h
	}
	for _, hl := range h {
		hcl := classes[hl.key]
		switch {
		case hcl.rank > cl.rank:
			w.c.reportf(pos,
				"lock order inversion: acquiring %s (%s) while holding %s (%s); the documented order is vm map lock < pmap lock < membership lock < action locks < scheduler lock",
				key, cl.what, hl.key, hcl.what)
		case hcl.rank == cl.rank:
			w.c.reportf(pos,
				"acquiring %s while already holding %s: same-rank locks are leaves of the documented order and at most one may be held",
				key, hl.key)
		}
	}
	return append(append([]held{}, h...), held{key: key, pos: pos})
}

func release(h []held, key string) []held {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].key == key {
			return append(append([]held{}, h[:i]...), h[i+1:]...)
		}
	}
	return h
}

// checkCall checks a non-lock call made while locks are held against the
// callee's may-acquire summary.
func (w *walker) checkCall(call *ast.CallExpr, h []held) {
	if len(h) == 0 {
		return
	}
	fn := summary.Callee(w.c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	for key := range w.c.mayAcquire(fn) {
		cl := classes[key]
		for _, hl := range h {
			hcl := classes[hl.key]
			if hcl.rank > cl.rank {
				w.c.reportf(call.Pos(),
					"call to %s may acquire %s (%s) while holding %s (%s): lock order inversion",
					fn.Name(), key, cl.what, hl.key, hcl.what)
			} else if hcl.rank == cl.rank {
				w.c.reportf(call.Pos(),
					"call to %s may acquire %s while %s is held: same-rank locks are leaves of the documented order",
					fn.Name(), key, hl.key)
			}
		}
	}
}

// tryLockCond matches the conditional-acquire shape `if l.TryLock(ex)`.
func (w *walker) tryLockCond(cond ast.Expr) (string, bool) {
	call, ok := ast.Unparen(cond).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if op := w.lockClass(call); op != nil && op.method == "TryLock" {
		return op.key, true
	}
	return "", false
}

// lockOp describes one SpinLock method call.
type lockOp struct {
	method string // Lock, TryLock, Unlock
	key    string // "pkg.field", or "" when the receiver is not a known field
}

// lockClass classifies a call as a SpinLock operation, or nil. The class
// key is derived from the SpinLock field the method is invoked on
// (summary.SpinLockOp, shared with the substrate so lock identities match
// the Acquires summaries exactly).
func (w *walker) lockClass(call *ast.CallExpr) *lockOp {
	return lockClassOf(w.c.pass, call)
}

func lockClassOf(pass *analysis.Pass, call *ast.CallExpr) *lockOp {
	method, key, ok := summary.SpinLockOp(pass.TypesInfo, call)
	if !ok {
		return nil
	}
	return &lockOp{method: method, key: key}
}

// --- may-acquire lookups on the shared substrate -------------------------

// mayAcquire returns the documented classes fn may transitively acquire,
// read from the summary substrate. The summaries record every field-homed
// lock; only keys in the documented table participate in ordering checks
// (undocumented locks are reported at their own acquisition sites, not
// imputed rank 0 here). Interface methods resolve by bare name against
// every summary available.
func (c *checker) mayAcquire(fn *types.Func) map[string]bool {
	documented := func(dst map[string]bool, acq map[string]summary.Effect) map[string]bool {
		for key := range acq {
			if _, ok := classes[key]; ok {
				if dst == nil {
					dst = map[string]bool{}
				}
				dst[key] = true
			}
		}
		return dst
	}
	if summary.IsInterfaceMethod(fn) {
		out := map[string]bool{}
		c.ix.EachFunc(func(full string, s *summary.FuncSummary) {
			if methodName(full) == fn.Name() {
				out = documented(out, s.Acquires)
			}
		})
		return out
	}
	if s := c.ix.Func(fn.FullName()); s != nil {
		return documented(nil, s.Acquires)
	}
	return nil
}

// --- helpers -------------------------------------------------------------

// methodName extracts the bare method name from a types.Func.FullName like
// "(*shootdown/internal/core.Shootdown).Sync".
func methodName(full string) string {
	for i := len(full) - 1; i >= 0; i-- {
		if full[i] == '.' {
			return full[i+1:]
		}
	}
	return full
}
