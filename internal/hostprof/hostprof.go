// Package hostprof is the host-cost observability layer: it attributes
// the simulator's *real* heap bytes — allocated on the machine running
// the simulation — to the simulator's own functions and packages, with no
// code in the simulated packages.
//
// Every other instrument in this repo (tracer, virtual-time profiler,
// flight recorder) observes the simulated machine; hostprof turns the
// instruments on the simulator. A Sampler runs each measured phase with
// runtime.MemProfileRate = 1, so the runtime's memory profile records
// every allocation with its call stack. The phase's profile delta is
// charged to the innermost function of this module that made each
// allocation (or, on a stack with no module frame, to its innermost
// runtime or iter function), then rolled up by package. Nothing is
// sampled or estimated, so the attributed bytes match the allocator's
// own TotalAlloc delta. A Budget caps each package's bytes per phase;
// TestHostCostBudget holds Figure 2, Table 1 and a churn-world snapshot
// to the ceilings in scripts/hostcost-budget.txt.
//
// The Sampler reads the runtime's allocator statistics and memory
// profile. The simdeterminism analyzer bans those calls inside the
// simulated packages — including the Sampler's constructor — so only
// host-side code builds a Sampler.
package hostprof

import (
	"runtime"
	"sort"
	"strings"
)

const (
	// modulePrefix is the import-path prefix of this module's packages;
	// an allocation is charged to the innermost frame under it.
	modulePrefix = "shootdown/"
	// selfPrefix marks the sampler's own frames: its bookkeeping between
	// the two profile reads is measurement overhead, never a site.
	selfPrefix = "shootdown/internal/hostprof."
)

// allocs is one stack's cumulative allocation tally.
type allocs struct{ bytes, objects int64 }

// memProfile returns the runtime's cumulative memory profile summed per
// call stack. The runtime keys its records by stack and allocation size,
// so one stack can span several records.
func memProfile() map[[32]uintptr]allocs {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]allocs, n)
	for _, r := range recs[:n] {
		a := out[r.Stack0]
		a.bytes += r.AllocBytes
		a.objects += r.AllocObjects
		out[r.Stack0] = a
	}
	return out
}

// attribute charges the allocations recorded between two memory profiles
// to a function per stack (see siteOf), and rolls those rows up by
// package. Both tables are ordered by bytes descending. Stacks through the
// sampler itself stay unattributed.
func attribute(before, after map[[32]uintptr]allocs) (funcs, pkgs []SiteCost) {
	byFunc := map[string]*SiteCost{}
	byPkg := map[string]*SiteCost{}
	add := func(m map[string]*SiteCost, site, pkg string, d allocs) {
		row := m[site]
		if row == nil {
			row = &SiteCost{Site: site, Package: pkg}
			m[site] = row
		}
		row.Count += d.objects
		row.Bytes += d.bytes
	}
	for stk, a := range after {
		d := allocs{a.bytes - before[stk].bytes, a.objects - before[stk].objects}
		if d.bytes == 0 && d.objects == 0 {
			continue
		}
		fn := siteOf(stk)
		if fn == "" {
			continue
		}
		pkg := packageOf(fn)
		add(byFunc, fn, pkg, d)
		add(byPkg, pkg, pkg, d)
	}
	return sorted(byFunc), sorted(byPkg)
}

// siteOf resolves a profile stack to the function its allocation is
// charged to: the innermost module function, or, when the recorded stack
// holds no module frame, its innermost frame. The runtime records some
// allocations with no module frame at all — those it makes on the system
// stack, such as a new goroutine's or coroutine's g (runtime.malg), and
// those at a coroutine's entry (iter.Pull's closure) — and charging them
// to a named runtime or iter row keeps them in the tables. A stack whose
// innermost module frame is the sampler's own resolves to "".
func siteOf(stk [32]uintptr) string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	frames := runtime.CallersFrames(pcs)
	innermost := ""
	for {
		f, more := frames.Next()
		if innermost == "" {
			innermost = f.Function
		}
		if strings.HasPrefix(f.Function, modulePrefix) {
			if strings.HasPrefix(f.Function, selfPrefix) {
				return ""
			}
			return f.Function
		}
		if !more {
			return innermost
		}
	}
}

// packageOf returns the import path of a fully qualified function name:
// "shootdown/internal/sim.(*Engine).run" → "shootdown/internal/sim".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// sorted flattens a row map ordered by bytes descending, then count
// descending, then name.
func sorted(m map[string]*SiteCost) []SiteCost {
	out := make([]SiteCost, 0, len(m))
	for _, row := range m {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Site < b.Site
	})
	return out
}
