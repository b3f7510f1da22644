// Direct-effect collection: the single-function walk that seeds the
// interprocedural fixpoint. Function literals nested in a body execute
// within the same dynamic extent when invoked synchronously, so their
// effects are attributed to the enclosing function (the conservative
// choice the pre-substrate lockorder and ipldiscipline summaries made);
// hookpurity analyzes hook literals separately by calling Direct on the
// literal body itself.

package summary

import (
	"go/ast"
	"go/token"
	"go/types"
)

// drawMethods are the *math/rand.Rand methods that consume stream state.
// Seed is excluded: it repositions rather than draws, and rngdiscipline
// checks seeding separately.
var drawMethods = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
}

// clockFuncs are the package time functions that read or arm the host
// clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// Direct computes the direct (intraprocedural) summary of one function or
// function-literal body.
func Direct(info *types.Info, body ast.Node) *FuncSummary {
	c := &collector{
		info:  info,
		fresh: freshLocals(info, body),
		out:   &FuncSummary{},
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.write(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			c.write(n.X, n.Pos())
		case *ast.CallExpr:
			c.call(n)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				c.escape(res)
			}
		}
		return true
	})
	return c.out
}

type collector struct {
	info  *types.Info
	fresh map[types.Object]bool
	out   *FuncSummary
}

func (c *collector) add(m *map[string]Effect, key string, pos token.Pos) {
	if *m == nil {
		*m = map[string]Effect{}
	}
	if _, ok := (*m)[key]; !ok {
		(*m)[key] = Effect{Pos: pos}
	}
}

// write records one assignment target as a mutation unless it provably
// lands in a local copy.
func (c *collector) write(lhs ast.Expr, pos token.Pos) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		// A bare identifier mutates shared state only when it names a
		// package-level variable; writes to locals are SSA noise.
		if v, ok := c.info.ObjectOf(id).(*types.Var); ok && !v.IsField() && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			c.add(&c.out.Mutates, v.Pkg().Name()+"."+v.Name(), pos)
		}
		return
	}
	root, ref := rootRef(c.info, lhs)
	if v, ok := root.(*types.Var); ok {
		if c.fresh[v] {
			return // writing into an object allocated in this function
		}
		local := v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
		if local && !ref {
			return // writing into a value copy (value receiver/param/local)
		}
	}
	if key, ok := writeKey(c.info, lhs); ok {
		c.add(&c.out.Mutates, key, pos)
	}
}

// call records clock reads, RNG draws (receiver and argument rooted),
// spin-lock acquisitions, blocking, and the static call-graph edge.
func (c *collector) call(call *ast.CallExpr) {
	// Field-rooted *rand.Rand streams handed to a callee draw on the
	// caller's stream.
	for _, arg := range call.Args {
		if isRandPtr(c.info.Types[arg].Type) {
			if key, ok := fieldRootKey(c.info, arg); ok {
				c.add(&c.out.Draws, key, arg.Pos())
			}
		}
	}
	fn := Callee(c.info, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "time" && clockFuncs[fn.Name()] {
		c.add(&c.out.ReadsClock, "time."+fn.Name(), call.Pos())
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if isRandPtr(c.info.Types[sel.X].Type) && drawMethods[fn.Name()] {
			if key, ok := fieldRootKey(c.info, sel.X); ok {
				c.add(&c.out.Draws, key, call.Pos())
			}
			return
		}
	}
	if method, key, ok := SpinLockOp(c.info, call); ok {
		if (method == "Lock" || method == "TryLock") && !isLocalKey(key) {
			c.add(&c.out.Acquires, key, call.Pos())
		}
		// Fall through: the call edge still carries SpinLock.Lock's own
		// mutation of the lock word to callers.
	}
	if IsBlockingBase(fn) {
		c.out.Blocks = true
	}
	if IsInterfaceMethod(fn) {
		return // not statically resolvable; consumers handle by name
	}
	if c.out.Calls == nil {
		c.out.Calls = map[string]token.Pos{}
	}
	if _, ok := c.out.Calls[fn.FullName()]; !ok {
		c.out.Calls[fn.FullName()] = call.Pos()
	}
}

// escape records a returned reference to a struct field (pointer, slice,
// map, or func typed), the shape through which internal state can leak to
// a caller.
func (c *collector) escape(res ast.Expr) {
	t := c.info.Types[res].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Signature, *types.Chan:
	default:
		return
	}
	if key, ok := fieldRootKey(c.info, res); ok {
		c.add(&c.out.Escapes, key, res.Pos())
	}
}

// freshLocals collects local variables bound to allocations made in this
// body (composite literals, &composite, new, make, or zero-value var
// declarations): writes through them cannot reach pre-existing state.
// Rebinding a fresh variable to an alias later is not tracked; the
// heuristic is deliberately one-shot.
func freshLocals(info *types.Info, body ast.Node) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	note := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		if rhs == nil || isAllocation(info, rhs) {
			fresh[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					note(id, n.Rhs[i])
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					note(id, rhs)
				}
			}
		}
		return true
	})
	return fresh
}

func isAllocation(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "new" || b.Name() == "make"
			}
		}
	case *ast.BasicLit:
		return true
	}
	return false
}

// rootRef walks an assignment target to its root object, reporting whether
// any step dereferences a pointer or indexes a slice/map (in which case
// the write escapes the root variable's own storage).
func rootRef(info *types.Info, e ast.Expr) (types.Object, bool) {
	ref := false
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if t := info.Types[x.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					ref = true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if t := info.Types[x.X].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					ref = true
				}
			}
			e = x.X
		case *ast.StarExpr:
			ref = true
			e = x.X
		case *ast.Ident:
			return info.ObjectOf(x), ref
		default:
			return nil, true // call results and the like: assume shared
		}
	}
}

// writeKey names the state location an assignment target denotes.
func writeKey(info *types.Info, e ast.Expr) (string, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
				if pkg, tn := namedType(s.Recv()); tn != "" {
					return pkg + "." + tn + "." + x.Sel.Name, true
				}
				if v, ok := s.Obj().(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Name() + "." + x.Sel.Name, true
				}
				return "", false
			}
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil {
				return v.Pkg().Name() + "." + v.Name(), true // pkg-qualified var
			}
			return "", false
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			if t := info.Types[x.X].Type; t != nil {
				if p, ok := t.Underlying().(*types.Pointer); ok {
					if pkg, tn := namedType(p.Elem()); tn != "" {
						return pkg + "." + tn, true
					}
				}
			}
			return "", false
		case *ast.Ident:
			if t := info.Types[x].Type; t != nil {
				if pkg, tn := elemNamedType(t); tn != "" {
					return pkg + "." + tn, true
				}
			}
			return "", false
		default:
			return "", false
		}
	}
}

// fieldRootKey names the struct field at the root of an expression like
// in.streams[i] or m.rng ("fault.Injector.streams", "machine.Machine.rng"),
// or reports false when the expression is not rooted in a field.
func fieldRootKey(info *types.Info, e ast.Expr) (string, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
				if pkg, tn := namedType(s.Recv()); tn != "" {
					return pkg + "." + tn + "." + x.Sel.Name, true
				}
				if v, ok := s.Obj().(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Name() + "." + x.Sel.Name, true
				}
			}
			return "", false
		default:
			return "", false
		}
	}
}

// namedType names a (possibly pointer-wrapped) named type as
// (package name, type name); ("", "") if unnamed.
func namedType(t types.Type) (string, string) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Name(), named.Obj().Name()
	}
	return "", ""
}

// elemNamedType names the named type a container holds (slice, map, array,
// pointer), or the type itself.
func elemNamedType(t types.Type) (string, string) {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return namedType(u.Elem())
	case *types.Array:
		return namedType(u.Elem())
	case *types.Map:
		return namedType(u.Elem())
	case *types.Pointer:
		return namedType(u.Elem())
	}
	return namedType(t)
}

// --- shared classification helpers --------------------------------------

// FieldRootKey exposes fieldRootKey for dependent analyzers
// (rngdiscipline keys draw counters the same way draws are keyed).
func FieldRootKey(info *types.Info, e ast.Expr) (string, bool) {
	return fieldRootKey(info, e)
}

// IsRandStream reports whether t is *math/rand.Rand.
func IsRandStream(t types.Type) bool {
	return isRandPtr(t)
}

// Callee resolves a call's static callee, or nil (calls through function
// values, method values stored in fields, and built-ins).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsBlockingBase recognizes the blocking primitive sim.Proc.Block, by
// package name so analysistest fixture packages classify like the real
// tree.
func IsBlockingBase(fn *types.Func) bool {
	return fn.Name() == "Block" && ReceiverTypeName(fn) == "Proc" &&
		fn.Pkg() != nil && fn.Pkg().Name() == "sim"
}

// SpinLockOp classifies a call as a machine.SpinLock operation, returning
// the method (Lock, TryLock, Unlock) and the lock key: "pkg.field" for a
// field-homed lock (s.actionLocks[cpu].Lock and pm.lock.Lock key by the
// field, not the instance), or "local <name>" for lock variables.
func SpinLockOp(info *types.Info, call *ast.CallExpr) (method, key string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "machine" ||
		ReceiverTypeName(fn) != "SpinLock" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "TryLock", "Unlock":
	default:
		return "", "", false
	}
	return fn.Name(), lockFieldKey(info, sel.X), true
}

// lockFieldKey names the SpinLock field a receiver expression selects:
// pm.lock -> "pmap.lock", s.actionLocks[cpu] -> "core.actionLocks".
func lockFieldKey(info *types.Info, recv ast.Expr) string {
	for {
		switch r := ast.Unparen(recv).(type) {
		case *ast.IndexExpr:
			recv = r.X
			continue
		case *ast.SelectorExpr:
			if v, ok := info.Uses[r.Sel].(*types.Var); ok && v.IsField() && v.Pkg() != nil {
				return v.Pkg().Name() + "." + r.Sel.Name
			}
			return "local " + r.Sel.Name
		case *ast.Ident:
			return "local " + r.Name
		default:
			return "local lock"
		}
	}
}

func isLocalKey(key string) bool {
	return len(key) >= 6 && key[:6] == "local "
}

// ReceiverTypeName names a method's receiver type, "" for plain functions.
func ReceiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// IsInterfaceMethod reports whether fn is an interface method, whose
// callee is only known at run time.
func IsInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

func isRandPtr(t types.Type) bool {
	if t == nil {
		return false
	}
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Rand" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "math/rand"
}
