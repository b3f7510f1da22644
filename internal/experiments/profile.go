package experiments

import (
	"fmt"

	"shootdown/internal/profile"
	"shootdown/internal/workload"
)

// profileKs are the responder counts the profile experiment sweeps: the
// uncongested region plus the ≥12-processor tail where Figure 2's curve
// bends.
var profileKs = []int{1, 2, 4, 8, 12, 13, 14, 15}

// ProfilePoint aggregates the critical-path attribution of every
// k-responder user shootdown the sweep produced. The per-responder
// quantities describe the LAST responder of each shootdown — the one the
// initiator actually waited for.
type ProfilePoint struct {
	Processors int `json:"processors"`
	// Shootdowns is how many user shootdowns with exactly k responders
	// were reconstructed (one per run when the sweep is healthy).
	Shootdowns int `json:"shootdowns"`
	// MeanSyncUS is the mean initiator elapsed time (start of the sync to
	// the pmap-lock release path), in µs.
	MeanSyncUS float64 `json:"mean_sync_us"`
	// Mean last-responder decomposition of post→ack, in µs.
	MaskedPendUS float64 `json:"masked_pend_us"` // IPI pended behind a raised IPL
	IRQLatUS     float64 `json:"irq_lat_us"`     // hardware interrupt latency
	DispatchUS   float64 `json:"dispatch_us"`    // IPL-masked dispatch + handler
	BusUS        float64 `json:"bus_us"`         // bus queueing inside the window
	// MaskedShare is (pend + masked dispatch) / (ack - post): the fraction
	// of the last responder's response time spent under a raised IPL.
	MaskedShare float64 `json:"masked_share"`
	// BusShare is bus queueing / (ack - post).
	BusShare float64 `json:"bus_share"`
	// Why tallies the classifier's verdict on why the last responder was
	// last, across the k-responder shootdowns.
	WhyMasked   int `json:"why_masked"`
	WhyDispatch int `json:"why_dispatch"`
	WhyBus      int `json:"why_bus"`
}

// ProfileResult is the cost-attribution experiment: the Figure 2 workload
// run under the virtual-time profiler, each shootdown's critical path
// reconstructed and decomposed into phases.
type ProfileResult struct {
	Points []ProfilePoint `json:"points"`
	// Prof retains the profiler for folded-stack/contention emission; the
	// pointer is shared with any Instrument that supplied it.
	Prof *profile.Profiler `json:"-"`
}

// Profile runs the basic-cost tester at each responder count under one
// shared profiler (a.In's, or a fresh one) and reconstructs every user
// shootdown's critical path. It reproduces the paper's cost-attribution
// narrative: responder cost is dominated by IPL-masked intervals, and bus
// contention explains the departure from the linear trend at 12+
// processors.
func Profile(a *Args) (ProfileResult, error) {
	in := a.In
	if in.Profiler == nil {
		in.Profiler = profile.New()
	}
	p := in.Profiler
	if _, err := workload.RunBasicCost(workload.BasicCostConfig{
		Ks:   profileKs,
		Runs: max(a.Runs, 1),
		App:  in.App(workload.AppConfig{NCPUs: 16, Seed: a.Seed, NoTimer: true}),
	}); err != nil {
		return ProfileResult{}, fmt.Errorf("profile: %w", err)
	}

	out := ProfileResult{Prof: p}
	cps := p.CriticalPaths()
	for _, k := range profileKs {
		pt := ProfilePoint{Processors: k}
		var sync, pend, irq, disp, bus, maskedShare, busShare float64
		for _, cp := range cps {
			last := cp.Last
			window := float64(last.AckNS - last.PostNS)
			if cp.Rec.Kernel || len(cp.Rec.Responders) != k || window <= 0 {
				continue
			}
			pt.Shootdowns++
			sync += float64(cp.SyncNS()) / 1000
			pend += float64(last.PendNS) / 1000
			irq += float64(last.IRQNS) / 1000
			disp += float64(last.DispatchNS+last.OtherNS) / 1000
			bus += float64(last.BusNS) / 1000
			maskedShare += float64(last.PendNS+last.DispatchNS) / window
			busShare += float64(last.BusNS) / window
			switch last.Why {
			case "masked":
				pt.WhyMasked++
			case "dispatch":
				pt.WhyDispatch++
			case "bus":
				pt.WhyBus++
			}
		}
		if n := float64(pt.Shootdowns); n > 0 {
			pt.MeanSyncUS = sync / n
			pt.MaskedPendUS = pend / n
			pt.IRQLatUS = irq / n
			pt.DispatchUS = disp / n
			pt.BusUS = bus / n
			pt.MaskedShare = maskedShare / n
			pt.BusShare = busShare / n
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// point returns the sweep point for k processors, or nil.
func (r ProfileResult) point(k int) *ProfilePoint {
	for i := range r.Points {
		if r.Points[i].Processors == k {
			return &r.Points[i]
		}
	}
	return nil
}

// Doc is the attribution table and the narrative checks.
func (r ProfileResult) Doc() Doc {
	var d Doc
	d.line("Cost attribution: per-shootdown critical paths under the virtual-time profiler")
	d.line("(last responder of each Figure 2 shootdown, post→ack decomposition)\n")
	d.row("processors\tshootdowns\tsync (µs)\tpend (µs)\tirq (µs)\tdispatch (µs)\tbus (µs)\tmasked share\tbus share\twhy last")
	for _, p := range r.Points {
		d.row("%d\t%d\t%.0f\t%.1f\t%.1f\t%.0f\t%.1f\t%.0f%%\t%.1f%%\t%dm/%dd/%db",
			p.Processors, p.Shootdowns, p.MeanSyncUS, p.MaskedPendUS, p.IRQLatUS,
			p.DispatchUS, p.BusUS, 100*p.MaskedShare, 100*p.BusShare,
			p.WhyMasked, p.WhyDispatch, p.WhyBus)
	}
	d.line("\npend+dispatch run at an IPL masking the shootdown IPI: the masked interval")
	d.line("is the responder's whole post→ack cost minus bus queueing (§8).")
	if lo, hi := r.point(4), r.point(14); lo != nil && hi != nil && lo.BusShare > 0 {
		d.line("bus-stall share %.1f%% at 4 CPUs vs %.1f%% at 14 (×%.1f): bus contention",
			100*lo.BusShare, 100*hi.BusShare, hi.BusShare/lo.BusShare)
		d.line("bends Figure 2's curve past 12 processors, as the paper reports.")
	}
	return d
}
