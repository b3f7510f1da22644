package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// term is one line of the explain model: a per-run count of some layer's
// operations times the self cost of one such operation.
type term struct {
	layer  string
	count  string
	n      float64
	selfNS float64
}

func (t term) seconds() float64 { return t.n * t.selfNS / 1e9 }

// explainLayers are the layers explain attributes host time to, in print
// order.
var explainLayers = []string{"sim", "kernel", "machine", "tlb", "ptable", "core", "pmap", "vm", "xpr", "observers"}

// explainTerms multiplies a run's exact op counts by the ladder's self
// costs, times scale (see ladderScale). A rung's self cost is its time
// minus the lower rungs it calls (engine steps, TLB probes and inserts,
// page-table walks), each priced as its own term prices it, so every
// nanosecond is charged to one layer only: a shootdown's spinning is
// engine steps, charged to sim, and what is left of core.sync is the
// protocol's own bookkeeping. Self costs are signed. A negative one means
// the rung's lower-rung calls cost less inside it than on their own rungs,
// and the layer's own cost is below what the ladder resolves.
func explainTerms(c map[string]float64, l ladderResult, scale float64) []term {
	ns := func(name string) float64 { return l.Rungs[name].Value * rungPer(name) * scale }
	// Every world is a 16-CPU machine, whose run heap holds about one proc
	// per CPU, and every seeded engine scans it for chaos ties on each pop.
	step := ns("sim.switch_q16_ns")
	probe, insert, walk := ns("tlb.probe_ns"), ns("tlb.insert_ns"), ns("ptable.walk_ns")
	self := func(name string) float64 {
		k := l.Rungs[name].Calls
		return ns(name) - k.Steps*step - k.Probes*probe - k.Inserts*insert - k.Walks*walk
	}
	// core.sync at k = 1, 4, 15 responders, fitted to a + b·k: a per
	// shootdown, b per responder waited on.
	a, b := fitLine([]float64{1, 4, 15}, []float64{self("core.sync_k1_us"), self("core.sync_k4_us"), self("core.sync_k15_us")})
	accesses := c["tlb.hits"] + c["tlb.misses"]
	return []term{
		{"sim", "sim.steps", c["sim.steps"], step},
		{"sim", "sim.spawns", c["sim.spawns"], self("sim.spawn_ns")},
		{"kernel", "kernel.worlds", c["kernel.worlds"], self("kernel.build_us")},
		{"machine", "tlb.hits", c["tlb.hits"], self("machine.read_hit_ns")},
		{"machine", "tlb.misses", c["tlb.misses"], self("machine.read_miss_ns")},
		{"tlb", "tlb.hits+misses", accesses, probe},
		{"tlb", "tlb.inserts", c["tlb.inserts"], insert},
		{"ptable", "tlb.misses", c["tlb.misses"], walk},
		{"core", "core.syncs", c["core.syncs"], a},
		{"core", "core.ipis_sent+coalesced", c["core.ipis_sent"] + c["core.ipis_coalesced"], b},
		{"pmap", "pmap.pages_removed", c["pmap.pages_removed"], self("pmap.remove_64p_us") / 64},
		{"pmap", "pmap.pages_reprotected", c["pmap.pages_reprotected"], self("pmap.protect_64p_us") / 64},
		{"vm", "vm.faults", c["vm.faults"], self("vm.cow_fault_us")},
		{"xpr", "xpr.records", c["xpr.records"], ns("xpr.log_ns")},
		{"observers", "oracle.use+insert_checks", c["oracle.use_checks"] + c["oracle.insert_checks"], ns("oracle.use_check_ns")},
		// The profiler's hooks fire at the tracer's span sites.
		{"observers", "trace.events", c["trace.events"], ns("trace.hook_ns") + ns("profile.hook_ns")},
		{"observers", "snap.captures", c["snap.captures"], ns("snap.capture_us")},
	}
}

// rungPer returns the nanoseconds per reported unit of a ladder rung.
func rungPer(name string) float64 {
	for _, r := range ladder {
		if r.name == name {
			return r.per
		}
	}
	return 1
}

// fitLine is the least-squares line through (xs, ys).
func fitLine(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx, sy, sxx, sxy = sx+xs[i], sy+ys[i], sxx+xs[i]*xs[i], sxy+xs[i]*ys[i]
	}
	b = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	return (sy - b*sx) / n, b
}

// explainMetrics folds the terms into explain.<layer>_s, the share of
// wall_s they account for, and the residual.
func explainMetrics(terms []term, wallS float64) map[string]float64 {
	out := map[string]float64{}
	total := 0.0
	for _, l := range explainLayers {
		out["explain."+l+"_s"] = 0
	}
	for _, t := range terms {
		out["explain."+t.layer+"_s"] += t.seconds()
		total += t.seconds()
	}
	out["explain.pct"] = 100 * ratio(total, wallS)
	out["explain.residual_s"] = wallS - total
	return out
}

// printExplain renders one workload's explain table.
func printExplain(w io.Writer, name string, terms []term, wallS, scale float64) {
	fmt.Fprintf(w, "%s: wall_s %.3f s, rung costs ×%.3f, both on the reference host\n", name, wallS, scale)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "layer\tcount\tn\tself ns/op\test s\tshare\t\n")
	total := 0.0
	for _, t := range terms {
		total += t.seconds()
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.1f\t%.3f\t%.1f%%\t\n", t.layer, t.count, t.n, t.selfNS, t.seconds(), 100*ratio(t.seconds(), wallS))
	}
	fmt.Fprintf(tw, "explained\t\t\t\t%.3f\t%.1f%%\t\n", total, 100*ratio(total, wallS))
	fmt.Fprintf(tw, "residual\t\t\t\t%.3f\t%.1f%%\t\n", wallS-total, 100*ratio(wallS-total, wallS))
	tw.Flush()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
