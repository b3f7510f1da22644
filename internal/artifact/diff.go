package artifact

// Per-shootdown DAG edges, rendering for `tlbtrace dag`, and the cross-run
// diff for `tlbtrace diff`: align two profiled runs by shootdown identity
// and attribute the virtual-time delta to DAG edges, so "the run got 12%
// slower" becomes "the wait edge grew, and the last responder's growth is
// bus stall".

import (
	"fmt"
	"sort"
	"strings"

	"shootdown/internal/profile"
)

// FormatDAG renders one shootdown's DAG: the initiator's edge chain and
// every responder leg with its attribution.
func FormatDAG(exp *profile.ShootdownsExport, r profile.ShootExport) string {
	var b strings.Builder
	kind := "user"
	if r.Kernel {
		kind = "kernel"
	}
	e := profile.PathOf(r)
	fmt.Fprintf(&b, "shootdown #%d: initiator cpu%d, %s pmap, %d page(s), sync %.1fus\n",
		r.Seq, r.CPU, kind, r.Pages, float64(e.SyncNS())/1e3)
	fmt.Fprintf(&b, "  setup %.1fus -> send %.1fus -> wait %.1fus -> finish %.1fus\n",
		float64(e.SetupNS)/1e3, float64(e.SendNS)/1e3, float64(e.WaitNS)/1e3, float64(e.FinishNS)/1e3)
	for _, resp := range r.Responders {
		mark := " "
		if resp.CPU == r.LastCPU {
			mark = "*"
		}
		fmt.Fprintf(&b, "  %s cpu%-3d post=%.1fus deliver=%.1fus ack=%.1fus flush=%.1fus",
			mark, resp.CPU, float64(resp.PostNS)/1e3, float64(resp.DeliverNS)/1e3,
			float64(resp.AckNS)/1e3, float64(resp.FlushNS)/1e3)
		if resp.Why != "" {
			fmt.Fprintf(&b, "  [pend %.1f irq %.1f dispatch %.1f bus %.1f spin %.1f other %.1f us, why=%s]",
				float64(resp.PendNS)/1e3, float64(resp.IRQNS)/1e3, float64(resp.DispatchNS)/1e3,
				float64(resp.BusNS)/1e3, float64(resp.SpinNS)/1e3, float64(resp.OtherNS)/1e3, resp.Why)
		}
		b.WriteByte('\n')
	}
	if len(r.Responders) > 0 {
		b.WriteString("  (* = last responder: its ack completed the shootdown)\n")
	}
	return b.String()
}

// identity aligns shootdowns across runs: same initiator, same pmap kind,
// same page count — the nth such shootdown in one run is compared to the
// nth in the other. Sequence numbers are deliberately not used: an extra
// early shootdown in one run would shift every later seq.
type identity struct {
	CPU    int
	Kernel bool
	Pages  int
	Nth    int
}

// identities returns each record's identity, in record order.
func identities(exp *profile.ShootdownsExport) []identity {
	nth := map[identity]int{}
	ids := make([]identity, len(exp.Records))
	for i, r := range exp.Records {
		base := identity{CPU: r.CPU, Kernel: r.Kernel, Pages: r.Pages}
		ids[i] = base
		ids[i].Nth = nth[base]
		nth[base]++
	}
	return ids
}

// EdgeDelta is one DAG edge's aggregate across every matched shootdown.
type EdgeDelta struct {
	Edge    string
	OldNS   int64
	NewNS   int64
	DeltaNS int64
}

// DiffReport is the outcome of aligning two profiled runs.
type DiffReport struct {
	Matched int
	OldOnly int
	NewOnly int
	// OldSyncNS/NewSyncNS total the matched shootdowns' end-to-end time.
	OldSyncNS, NewSyncNS int64
	// Edges aggregates the initiator's critical-path edges; RespEdges the
	// last responder's post→ack attribution (a decomposition of wait).
	Edges     []EdgeDelta
	RespEdges []EdgeDelta
	// Verdict names the initiator edge that grew the most, qualified by
	// the dominant responder component when that edge is the wait.
	Verdict string
}

// edgeNames label the initiator's critical-path edges, then the last
// responder's post→ack components, in the order edges lists them.
var edgeNames = [...]string{"setup", "send", "wait", "finish", "pend", "irq", "dispatch", "bus", "spin", "other"}

// edges lists a critical path's edge durations, then its last responder's
// components (zero when no responder acked).
func edges(cp profile.CriticalPath) [len(edgeNames)]int64 {
	e := [len(edgeNames)]int64{cp.SetupNS, cp.SendNS, cp.WaitNS, cp.FinishNS}
	if l := cp.Last; l != nil {
		e[4], e[5], e[6], e[7], e[8], e[9] = l.PendNS, l.IRQNS, l.DispatchNS, l.BusNS, l.SpinNS, l.OtherNS
	}
	return e
}

// DiffShootdowns aligns two runs by shootdown identity and attributes the
// virtual-time delta to DAG edges. Old records are walked in begin order
// (not map order), so the report is deterministic.
func DiffShootdowns(oldExp, newExp *profile.ShootdownsExport) *DiffReport {
	newBy := map[identity]profile.ShootExport{}
	for i, id := range identities(newExp) {
		newBy[id] = newExp.Records[i]
	}
	rep := &DiffReport{}
	var oldSum, newSum [len(edgeNames)]int64
	for i, id := range identities(oldExp) {
		oldRec := oldExp.Records[i]
		newRec, ok := newBy[id]
		if !ok {
			rep.OldOnly++
			continue
		}
		rep.Matched++
		oc, nc := profile.PathOf(oldRec), profile.PathOf(newRec)
		oe, ne := edges(oc), edges(nc)
		for i := range oe {
			oldSum[i] += oe[i]
			newSum[i] += ne[i]
		}
		rep.OldSyncNS += oc.SyncNS()
		rep.NewSyncNS += nc.SyncNS()
	}
	rep.NewOnly = len(newBy) - rep.Matched
	for i, name := range edgeNames {
		d := EdgeDelta{Edge: name, OldNS: oldSum[i], NewNS: newSum[i], DeltaNS: newSum[i] - oldSum[i]}
		if i < 4 {
			rep.Edges = append(rep.Edges, d)
		} else {
			rep.RespEdges = append(rep.RespEdges, d)
		}
	}
	rep.Verdict = verdict(rep)
	return rep
}

// verdict names the edge with the largest absolute delta; a wait-edge
// verdict is qualified by the largest-moving responder component. Ties
// break by edge order, so the verdict is deterministic.
func verdict(rep *DiffReport) string {
	if rep.Matched == 0 {
		return "no shootdowns aligned between the two runs"
	}
	top := rep.Edges[0]
	for _, e := range rep.Edges[1:] {
		if abs64(e.DeltaNS) > abs64(top.DeltaNS) {
			top = e
		}
	}
	if top.DeltaNS == 0 {
		return "no virtual-time movement on any DAG edge"
	}
	dir := "grew"
	if top.DeltaNS < 0 {
		dir = "shrank"
	}
	v := fmt.Sprintf("%s edge %s by %.1fus across %d matched shootdowns",
		top.Edge, dir, float64(abs64(top.DeltaNS))/1e3, rep.Matched)
	if top.Edge == "wait" {
		comp := rep.RespEdges[0]
		for _, e := range rep.RespEdges[1:] {
			if abs64(e.DeltaNS) > abs64(comp.DeltaNS) {
				comp = e
			}
		}
		if comp.DeltaNS != 0 {
			v += fmt.Sprintf("; last-responder movement is dominated by %s (%+.1fus)",
				comp.Edge, float64(comp.DeltaNS)/1e3)
		}
	}
	return v
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Format renders the diff report.
func (rep *DiffReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "aligned %d shootdowns (%d only in old run, %d only in new)\n",
		rep.Matched, rep.OldOnly, rep.NewOnly)
	fmt.Fprintf(&b, "total sync time: old %.1fus, new %.1fus (%+.1fus)\n\n",
		float64(rep.OldSyncNS)/1e3, float64(rep.NewSyncNS)/1e3,
		float64(rep.NewSyncNS-rep.OldSyncNS)/1e3)
	fmt.Fprintf(&b, "%-10s %12s %12s %12s\n", "edge", "old_us", "new_us", "delta_us")
	for _, e := range rep.Edges {
		fmt.Fprintf(&b, "%-10s %12.1f %12.1f %+12.1f\n",
			e.Edge, float64(e.OldNS)/1e3, float64(e.NewNS)/1e3, float64(e.DeltaNS)/1e3)
	}
	fmt.Fprintf(&b, "\nlast-responder attribution (decomposes wait):\n")
	for _, e := range rep.RespEdges {
		fmt.Fprintf(&b, "%-10s %12.1f %12.1f %+12.1f\n",
			e.Edge, float64(e.OldNS)/1e3, float64(e.NewNS)/1e3, float64(e.DeltaNS)/1e3)
	}
	fmt.Fprintf(&b, "\nverdict: %s\n", rep.Verdict)
	return b.String()
}

// SlowestShootdown returns the record with the largest end-to-end sync
// time (ties toward the lower seq), for `tlbtrace dag` without -seq.
func SlowestShootdown(exp *profile.ShootdownsExport) (profile.ShootExport, bool) {
	var best profile.ShootExport
	found := false
	var bestNS int64 = -1
	recs := append([]profile.ShootExport(nil), exp.Records...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	for _, r := range recs {
		ns := profile.PathOf(r).SyncNS()
		if ns > bestNS {
			best, bestNS, found = r, ns, true
		}
	}
	return best, found
}
