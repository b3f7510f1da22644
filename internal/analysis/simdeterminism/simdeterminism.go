// Package simdeterminism rejects sources of nondeterminism in simulated
// code. The reproduction's experiments — and especially the seeded
// fault-injection campaigns (DESIGN.md §9) — must replay byte-identically
// from a seed, so simulated packages may consume no wall-clock time, no
// process-wide randomness, no host environment, and no Go map iteration
// order that can leak into output:
//
//   - time.Now / time.Sleep / time.Since and friends read or consume real
//     time; simulated code has only virtual time (sim.Engine.Now).
//   - Package-level math/rand functions draw from the global, unseeded
//     source; every RNG must be a *rand.Rand built from a seed that is
//     part of the experiment configuration (rand.New(rand.NewSource(s))).
//   - os.Getenv / os.LookupEnv make results depend on the host.
//   - runtime.ReadMemStats, runtime.MemProfile and the runtime/pprof entry
//     points observe the host heap and label OS threads. Simulated
//     packages carry no host-cost code at all: internal/hostprof's Sampler
//     attributes allocations from the runtime's memory profile, and only
//     host-side code may construct one (hostprof.NewSampler). Host CPU
//     profiles are taken from outside the simulated code, by the test
//     binary or the benchmark's own harness.
//   - A `range` over a map whose body calls anything with observable
//     effects (trace records, metric emission, rendered output, test
//     assertions) publishes Go's randomized iteration order. Pure
//     aggregation (counter += v, building a key slice to sort, copying
//     into another map, delete) is order-insensitive and allowed.
package simdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"shootdown/internal/analysis"
	"shootdown/internal/analysis/summary"
)

// Analyzer is the simdeterminism analysis.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock time, global randomness, host environment, and " +
		"map-iteration order leaking into simulated packages",
	Run: run,
}

// forbiddenFuncs maps package path -> function name -> explanation.
var forbiddenFuncs = map[string]map[string]string{
	"time": {
		"Now":       "reads the wall clock; simulated code has only virtual time (sim.Engine.Now)",
		"Sleep":     "blocks on the wall clock; use the engine's virtual time",
		"Since":     "measures wall-clock time; measure virtual time instead",
		"Until":     "measures wall-clock time; measure virtual time instead",
		"After":     "arms a wall-clock timer; use virtual time",
		"AfterFunc": "arms a wall-clock timer; use virtual time",
		"Tick":      "arms a wall-clock ticker; use virtual time",
		"NewTimer":  "arms a wall-clock timer; use virtual time",
		"NewTicker": "arms a wall-clock ticker; use virtual time",
	},
	"os": {
		"Getenv":    "makes results depend on the host environment; thread configuration through Options",
		"LookupEnv": "makes results depend on the host environment; thread configuration through Options",
		"Environ":   "makes results depend on the host environment; thread configuration through Options",
	},
	"runtime": {
		"ReadMemStats": "observes the host heap; host-cost measurement lives in hostprof.Sampler, outside the simulated packages",
		"MemProfile":   "reads the host allocation profile; host-cost measurement lives in hostprof.Sampler, outside the simulated packages",
	},
	"runtime/pprof": {
		"Do":                 "labels host goroutines for profiling; host profiles are taken outside the simulated packages",
		"SetGoroutineLabels": "labels host goroutines for profiling; host profiles are taken outside the simulated packages",
		"StartCPUProfile":    "starts host CPU profiling; host profiles are taken outside the simulated packages",
		"StopCPUProfile":     "stops host CPU profiling; host profiles are taken outside the simulated packages",
		"WriteHeapProfile":   "dumps the host heap; host profiles are taken outside the simulated packages",
		"Lookup":             "reads host profiling state; host profiles are taken outside the simulated packages",
	},
}

// randAllowed lists the math/rand package-level functions that do not
// touch the global source.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkCall flags calls to the forbidden wall-clock/env/global-rand
// functions.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := summary.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	if reasons, ok := forbiddenFuncs[pkg]; ok {
		if why, ok := reasons[name]; ok {
			pass.Reportf(call.Pos(), "call to %s.%s in simulated code: %s", pkg, name, why)
		}
		return
	}
	// The Sampler constructor pulls in heap observation and may only run
	// in host-side code; methods on a sampler never reach this point. Matched by path suffix so the fixture module's
	// mirror package is caught too.
	if name == "NewSampler" && (pkg == "hostprof" || strings.HasSuffix(pkg, "/hostprof")) {
		pass.Reportf(call.Pos(),
			"call to %s.NewSampler in simulated code: samplers read the host heap and allocation profile; construct one in host-side code",
			pkg)
		return
	}
	if (pkg == "math/rand" || pkg == "math/rand/v2") && !randAllowed[name] {
		pass.Reportf(call.Pos(),
			"call to global %s.%s in simulated code: package-level randomness is not seeded per run; use a seeded *rand.Rand",
			pkg, name)
	}
}

// checkMapRange flags map iterations whose bodies have effects that can
// publish the (randomized) iteration order.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// With no bound iteration variable the order cannot leak.
	if !bindsVar(rng.Key) && !bindsVar(rng.Value) {
		return
	}
	if call := firstEffectCall(pass, rng.Body); call != nil {
		pass.Reportf(rng.Pos(),
			"iteration over a map calls %s in its body, publishing the randomized map order; iterate a sorted key slice instead",
			callName(pass, call))
	}
}

func bindsVar(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name != "_"
}

// orderInsensitiveBuiltins are the builtins a map-range body may call
// without observing iteration order.
var orderInsensitiveBuiltins = map[string]bool{
	"append": true, "cap": true, "copy": true, "delete": true, "len": true,
	"make": true, "max": true, "min": true, "new": true, "panic": true,
}

// firstEffectCall returns the first call in the loop body that is neither
// an order-insensitive builtin nor a type conversion, or nil.
func firstEffectCall(pass *analysis.Pass, body *ast.BlockStmt) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				if orderInsensitiveBuiltins[obj.Name()] {
					return true
				}
			}
		}
		found = call
		return false
	})
	return found
}

// callName renders a call target for a diagnostic.
func callName(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := summary.Callee(pass.TypesInfo, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "a function"
}
