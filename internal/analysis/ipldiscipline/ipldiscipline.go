// Package ipldiscipline machine-checks the paper's interrupt-priority
// discipline (Section 4): code that raises a CPU's interrupt priority
// level must restore it on every path, and must never give up the CPU
// while it is raised.
//
// Concretely, for every saved-IPL value produced by machine.Exec.RaiseIPL,
// machine.Exec.DisableAll, or machine.SpinLock.Lock:
//
//   - Discarding the result is an error: the previous level is
//     unrecoverable and the CPU is stuck at the raised IPL.
//   - The saved value must be consumed on every path out of the function —
//     passed to RestoreIPL or SpinLock.Unlock, returned, stored into a
//     struct (core.Op carries it across Begin/Finish), or handed to any
//     callee — either directly or via a defer. An early return that skips
//     the restore, or a branch that restores on only one arm, is reported.
//   - Raising again while a saved level is still live (for example at the
//     top of a loop whose previous iteration did not restore) is reported:
//     the second save would overwrite the first and the original level
//     could never be re-established.
//   - While the saved level is live, no call may reach a blocking
//     primitive (sim.Proc.Block or anything that transitively calls it,
//     such as the kernel's yieldTo/blockSelf): blocking parks the context
//     with interrupts masked, so the shootdown IPI that might be needed to
//     unblock the system can never be delivered — the paper's "never block
//     with interrupts disabled" rule. Busy-waiting (SpinWhile, Advance,
//     Stall) is charged virtual time but keeps the context running, and is
//     allowed.
//
// The analysis is a conservative structural walk of each function body
// (if/switch branches, loops with fixpoint, defer, early returns); it
// tracks each saved-IPL variable independently and treats any consuming
// use as a handoff of the restore obligation. Whether a callee may
// transitively block comes from the shared interprocedural substrate
// (internal/analysis/summary), which propagates the Blocks bit across
// packages in dependency order.
package ipldiscipline

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"shootdown/internal/analysis"
	"shootdown/internal/analysis/summary"
)

// Analyzer is the ipldiscipline analysis.
var Analyzer = &analysis.Analyzer{
	Name: "ipldiscipline",
	Doc: "every RaiseIPL/DisableAll/SpinLock.Lock result must reach a restore on " +
		"all paths, and nothing may block while the IPL is raised",
	Requires: []*analysis.Analyzer{summary.Analyzer},
	Run:      run,
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
				c.checkScope(fd.Body)
			}
		}
		// Function literals are their own scopes: a raise inside one must
		// be restored inside it.
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.checkScope(lit.Body)
			}
			return true
		})
	}
	return nil, nil
}

// --- raise/restore discipline -------------------------------------------

type checker struct {
	pass     *analysis.Pass
	reported map[string]bool
	ix       *summary.Index // shared interprocedural summaries
}

func (c *checker) reportf(pos token.Pos, format string, args ...interface{}) {
	d := analysis.Diagnostic{Pos: pos}
	d.Message = fmt.Sprintf(format, args...)
	key := c.pass.Fset.Position(pos).String() + "\x00" + d.Message
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Report(d)
}

// checkScope finds the raise sites among a body's own statements (nested
// function literals are separate scopes) and analyzes each.
func (c *checker) checkScope(body *ast.BlockStmt) {
	var sites []*ast.AssignStmt
	inspectSkippingFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name := c.raiseName(call); name != "" {
					c.reportf(n.Pos(),
						"result of %s is discarded: the saved IPL can never be restored", name)
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || len(n.Lhs) != 1 {
				return
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return
			}
			name := c.raiseName(call)
			if name == "" {
				return
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				// Stored into a field or element: the struct carries the
				// restore obligation, like any other handoff.
				return
			}
			if id.Name == "_" {
				c.reportf(n.Pos(),
					"result of %s is discarded: the saved IPL can never be restored", name)
				return
			}
			sites = append(sites, n)
		}
	})
	for _, site := range sites {
		c.checkSite(body, site)
	}
}

// raiseName reports whether call is a raise primitive, returning its
// display name ("" if not).
func (c *checker) raiseName(call *ast.CallExpr) string {
	fn := summary.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	recv := summary.ReceiverTypeName(fn)
	if recv == "" || fn.Pkg() == nil || fn.Pkg().Name() != "machine" {
		return ""
	}
	switch {
	case recv == "Exec" && (fn.Name() == "RaiseIPL" || fn.Name() == "DisableAll"):
		return fn.Name()
	case recv == "SpinLock" && fn.Name() == "Lock":
		return "SpinLock.Lock"
	}
	return ""
}

// phase of the tracked saved-IPL variable along one path.
type phase int

const (
	inactive phase = iota // before the raise
	held                  // raised, not yet restored
	consumed              // restored or handed off
)

// pstate is one abstract path state.
type pstate struct {
	phase    phase
	deferred bool // a deferred consumer is armed
}

type stateSet map[pstate]bool

func single(s pstate) stateSet { return stateSet{s: true} }

func union(a, b stateSet) stateSet {
	out := stateSet{}
	for s := range a {
		out[s] = true
	}
	for s := range b {
		out[s] = true
	}
	return out
}

func equalSet(a, b stateSet) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if !b[s] {
			return false
		}
	}
	return true
}

// loopCtx collects states flowing out of break/continue statements.
type loopCtx struct {
	breaks    stateSet
	continues stateSet
}

// siteWalker analyzes one raise site's variable through the function body.
type siteWalker struct {
	c     *checker
	site  *ast.AssignStmt
	obj   types.Object
	name  string
	loops []*loopCtx
}

func (c *checker) checkSite(body *ast.BlockStmt, site *ast.AssignStmt) {
	id := site.Lhs[0].(*ast.Ident)
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	w := &siteWalker{c: c, site: site, obj: obj, name: c.raiseName(site.Rhs[0].(*ast.CallExpr))}
	out := w.evalList(body.List, single(pstate{phase: inactive}))
	for s := range out {
		if s.phase == held && !s.deferred {
			c.reportf(site.Pos(),
				"saved IPL from %s is not restored on all paths through the function", w.name)
			break
		}
	}
}

// exitCheck handles a return (or implicit function end) in the given states.
func (w *siteWalker) exitCheck(pos token.Pos, states stateSet) {
	for s := range states {
		if s.phase == held && !s.deferred {
			w.c.reportf(pos,
				"return leaks the raised IPL: saved level from %s is not restored on this path", w.name)
			return
		}
	}
}

// evalList evaluates a statement sequence.
func (w *siteWalker) evalList(stmts []ast.Stmt, in stateSet) stateSet {
	cur := in
	for _, s := range stmts {
		if len(cur) == 0 {
			return cur // unreachable
		}
		cur = w.evalStmt(s, cur)
	}
	return cur
}

// evalStmt evaluates one statement, returning the fallthrough states.
func (w *siteWalker) evalStmt(stmt ast.Stmt, in stateSet) stateSet {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if s == w.site {
			out := stateSet{}
			for st := range in {
				if st.phase == held {
					w.c.reportf(s.Pos(),
						"%s overwrites a still-unrestored saved IPL (raised again, e.g. on the next loop iteration, before the previous restore)", w.name)
				}
				out[pstate{phase: held, deferred: st.deferred}] = true
			}
			return out
		}
		return w.evalSimple(s, in)
	case *ast.DeferStmt:
		if w.usesObj(s.Call) {
			out := stateSet{}
			for st := range in {
				st.deferred = true
				out[st] = true
			}
			return out
		}
		return in
	case *ast.ReturnStmt:
		states := w.evalSimple(s, in) // `return prev` consumes before the check
		w.exitCheck(s.Pos(), states)
		return stateSet{}
	case *ast.BlockStmt:
		return w.evalList(s.List, in)
	case *ast.IfStmt:
		if s.Init != nil {
			in = w.evalStmt(s.Init, in)
		}
		in = w.evalExprEffects(s.Cond, in)
		thenOut := w.evalList(s.Body.List, in)
		elseOut := in
		if s.Else != nil {
			elseOut = w.evalStmt(s.Else, in)
		}
		return union(thenOut, elseOut)
	case *ast.ForStmt:
		if s.Init != nil {
			in = w.evalStmt(s.Init, in)
		}
		return w.evalLoop(in, s.Cond != nil, func(head stateSet, ctx *loopCtx) stateSet {
			out := w.evalList(s.Body.List, head)
			if s.Post != nil {
				out = union(out, stateSet{}) // keep set fresh
				out = w.evalStmt(s.Post, out)
			}
			return out
		})
	case *ast.RangeStmt:
		return w.evalLoop(in, true, func(head stateSet, ctx *loopCtx) stateSet {
			return w.evalList(s.Body.List, head)
		})
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return w.evalSwitch(stmt, in)
	case *ast.BranchStmt:
		if len(w.loops) > 0 {
			ctx := w.loops[len(w.loops)-1]
			switch s.Tok {
			case token.BREAK:
				ctx.breaks = union(ctx.breaks, in)
				return stateSet{}
			case token.CONTINUE:
				ctx.continues = union(ctx.continues, in)
				return stateSet{}
			}
		}
		if s.Tok == token.BREAK || s.Tok == token.CONTINUE {
			return stateSet{} // break/continue in a switch without a loop
		}
		return in // goto: no occurrences in this codebase; pass through
	case *ast.LabeledStmt:
		return w.evalStmt(s.Stmt, in)
	case *ast.ExprStmt:
		if isPanic(w.c.pass, s.X) {
			return stateSet{} // unwinding; deferred restores still run
		}
		return w.evalSimple(s, in)
	case *ast.GoStmt, *ast.SendStmt, *ast.SelectStmt:
		return w.evalSimple(stmt, in) // simconcurrency's domain
	case *ast.DeclStmt, *ast.IncDecStmt:
		return w.evalSimple(stmt, in)
	default:
		return in
	}
}

// evalLoop runs a loop body to fixpoint. mayskip says the body can run
// zero times (a conditional or range loop).
func (w *siteWalker) evalLoop(in stateSet, mayskip bool, body func(stateSet, *loopCtx) stateSet) stateSet {
	ctx := &loopCtx{breaks: stateSet{}, continues: stateSet{}}
	w.loops = append(w.loops, ctx)
	defer func() { w.loops = w.loops[:len(w.loops)-1] }()
	head := in
	for {
		out := body(head, ctx)
		next := union(head, union(out, ctx.continues))
		if equalSet(next, head) {
			break
		}
		head = next
	}
	exits := ctx.breaks
	if mayskip {
		exits = union(exits, head)
	}
	return exits
}

// evalSwitch evaluates switch/type-switch as a union over case bodies.
func (w *siteWalker) evalSwitch(stmt ast.Stmt, in stateSet) stateSet {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			in = w.evalStmt(s.Init, in)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			in = w.evalStmt(s.Init, in)
		}
		body = s.Body
	}
	out := stateSet{}
	ctx := &loopCtx{breaks: stateSet{}, continues: stateSet{}}
	w.loops = append(w.loops, ctx) // a bare break inside a case lands here
	for _, cc := range body.List {
		clause := cc.(*ast.CaseClause)
		if clause.List == nil {
			hasDefault = true
		}
		out = union(out, w.evalList(clause.Body, in))
	}
	w.loops = w.loops[:len(w.loops)-1]
	out = union(out, ctx.breaks)
	if !hasDefault {
		out = union(out, in)
	}
	return out
}

// evalSimple handles any statement with no control flow of its own:
// blocking checks, then consumption.
func (w *siteWalker) evalSimple(stmt ast.Stmt, in stateSet) stateSet {
	return w.evalNodeEffects(stmt, in)
}

// evalExprEffects applies blocking/consumption rules for an expression
// evaluated in the given states (e.g. an if condition).
func (w *siteWalker) evalExprEffects(e ast.Expr, in stateSet) stateSet {
	if e == nil {
		return in
	}
	return w.evalNodeEffects(e, in)
}

func (w *siteWalker) evalNodeEffects(n ast.Node, in stateSet) stateSet {
	anyHeld := false
	for s := range in {
		if s.phase == held {
			anyHeld = true
		}
	}
	if anyHeld {
		if pos, name, ok := w.firstBlockingCall(n); ok {
			w.c.reportf(pos,
				"call to %s may block while the IPL is raised by %s: never block with interrupts disabled", name, w.name)
		}
	}
	if w.usesObj(n) {
		return consumeAll(in)
	}
	return in
}

func consumeAll(in stateSet) stateSet {
	out := stateSet{}
	for s := range in {
		if s.phase == held {
			s.phase = consumed
		}
		out[s] = true
	}
	return out
}

// firstBlockingCall finds a call that may reach sim.Proc.Block, skipping
// defer statements (they run at function exit).
func (w *siteWalker) firstBlockingCall(n ast.Node) (token.Pos, string, bool) {
	var pos token.Pos
	var name string
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.DeferStmt); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := summary.Callee(w.c.pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if w.c.isBlocking(fn) {
			pos, name, found = call.Pos(), fn.Name(), true
			return false
		}
		return true
	})
	return pos, name, found
}

// --- blocking lookups on the shared substrate ----------------------------

// isBlocking reports whether fn may transitively reach sim.Proc.Block,
// per the summary analyzer's cross-package fixpoint.
func (c *checker) isBlocking(fn *types.Func) bool {
	if summary.IsBlockingBase(fn) {
		return true
	}
	s := c.ix.Func(fn.FullName())
	return s != nil && s.Blocks
}

// --- small helpers -------------------------------------------------------

// usesObj reports whether n references obj anywhere (including inside
// nested function literals, which execute within the same dynamic extent
// when invoked synchronously).
func (w *siteWalker) usesObj(n ast.Node) bool {
	info := w.c.pass.TypesInfo
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == w.obj {
			found = true
			return false
		}
		return true
	})
	return found
}

func isPanic(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// inspectSkippingFuncLits visits every node of a body except nested
// function literals (they are separate scopes).
func inspectSkippingFuncLits(body *ast.BlockStmt, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}
