package profile

// Deterministic profile emission. Every writer iterates sorted key
// slices (never map order) and prints only virtual-time quantities, so
// two runs with the same seed produce byte-identical files — the
// property scripts/check.sh's profile-determinism stage cmp(1)s.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// WriteFolded emits folded stacks, one "cpuNN;base;...;leaf <ns>" line
// per cell — directly consumable by flamegraph.pl / inferno / speedscope.
func (p *Profiler) WriteFolded(w io.Writer) error {
	for _, c := range p.Folded() {
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Stack, c.NS); err != nil {
			return err
		}
	}
	return nil
}

// WriteTimeline emits the per-CPU utilization timeline as CSV: leaf-phase
// nanoseconds per (bucket, cpu, phase), omitting zero cells.
func (p *Profiler) WriteTimeline(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "bucket_start_us,cpu,phase,ns"); err != nil {
		return err
	}
	if p == nil {
		return nil
	}
	bw := p.bucketNS()
	for cpu, cs := range p.cpus {
		if cs == nil {
			continue
		}
		idx := make([]int64, 0, len(cs.buckets))
		for b := range cs.buckets {
			idx = append(idx, b)
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		for _, b := range idx {
			bt := cs.buckets[b]
			for ph := 0; ph < NumPhases; ph++ {
				if bt[ph] == 0 {
					continue
				}
				_, err := fmt.Fprintf(w, "%d,%d,%s,%d\n", b*bw/1000, cpu, Phase(ph), bt[ph])
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeContention(w io.Writer, kind string, m map[string]*ContentionProfile, holds bool) error {
	for _, name := range contentionNames(m) {
		c := m[name]
		n := c.Wait.Count()
		if holds {
			_, err := fmt.Fprintf(w,
				"%s %-16s acquisitions %7d  contended %6d  wait p50/p90/max %8.1f/%8.1f/%8.1f us  hold p50/p90/max %8.1f/%8.1f/%8.1f us\n",
				kind, name, n, c.Contended,
				c.Wait.Quantile(0.5)/1000, c.Wait.Quantile(0.9)/1000, c.Wait.Max()/1000,
				c.Hold.Quantile(0.5)/1000, c.Hold.Quantile(0.9)/1000, c.Hold.Max()/1000)
			if err != nil {
				return err
			}
			continue
		}
		_, err := fmt.Fprintf(w,
			"%s %-16s transactions %9d  queued %8d  queue p50/p90/max %6.1f/%6.1f/%6.1f us  queued total %10.1f us\n",
			kind, name, c.Txns, c.Contended,
			c.Wait.Quantile(0.5)/1000, c.Wait.Quantile(0.9)/1000, c.Wait.Max()/1000,
			c.Wait.Sum()/1000)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteLocks emits the per-lock and per-bus-site contention profiles,
// sorted by name.
func (p *Profiler) WriteLocks(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "contention profile (virtual time)"); err != nil {
		return err
	}
	if p == nil {
		return nil
	}
	if err := writeContention(w, "lock", p.locks, true); err != nil {
		return err
	}
	return writeContention(w, "bus ", p.bus, false)
}

// criticalDetail caps the per-shootdown detail table; the aggregate below
// it always covers every record.
const criticalDetail = 40

// WriteCriticalPath emits the per-shootdown critical-path report: a
// detail table for the first shootdowns and machine-wide aggregates,
// including the last-responder attribution (masked vs dispatch vs bus).
func (p *Profiler) WriteCriticalPath(w io.Writer) error {
	cps := p.CriticalPaths()
	total := 0
	if p != nil {
		total = len(p.records)
	}
	_, err := fmt.Fprintf(w, "critical-path report: %d shootdowns reconstructed, %d with remote responders\n",
		total, len(cps))
	if err != nil {
		return err
	}
	if len(cps) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\nper-shootdown detail (first %d):\n", criticalDetail)
	fmt.Fprintln(w, "  seq    t_start_us  cpu kind   waiters  sync_us  setup  send   wait finish  last  pend_us irq_us disp_us bus_us  why")
	for i, cp := range cps {
		if i >= criticalDetail {
			fmt.Fprintf(w, "  ... %d more\n", len(cps)-criticalDetail)
			break
		}
		kind := "user"
		if cp.Rec.Kernel {
			kind = "kernel"
		}
		fmt.Fprintf(w, "  %4d %12.1f %4d %-6s %7d %8.1f %6.1f %5.1f %6.1f %6.1f %5d %8.1f %6.1f %7.1f %6.1f  %s\n",
			cp.Rec.Seq, float64(cp.Rec.StartNS)/1000, cp.Rec.CPU, kind, len(cp.Rec.Responders),
			float64(cp.SyncNS())/1000, float64(cp.SetupNS)/1000, float64(cp.SendNS)/1000,
			float64(cp.WaitNS)/1000, float64(cp.FinishNS)/1000,
			cp.Last.CPU, float64(cp.Last.PendNS)/1000, float64(cp.Last.IRQNS)/1000,
			float64(cp.Last.DispatchNS+cp.Last.OtherNS)/1000, float64(cp.Last.BusNS)/1000,
			cp.Last.Why)
	}

	var sync, setup, send, wait, finish, pend, irq, disp, bus int64
	why := map[string]int{}
	for _, cp := range cps {
		sync += cp.SyncNS()
		setup += cp.SetupNS
		send += cp.SendNS
		wait += cp.WaitNS
		finish += cp.FinishNS
		pend += cp.Last.PendNS
		irq += cp.Last.IRQNS
		disp += cp.Last.DispatchNS + cp.Last.OtherNS
		bus += cp.Last.BusNS
		why[cp.Last.Why]++
	}
	n := float64(len(cps))
	fmt.Fprintf(w, "\naggregate means over %d shootdowns (us):\n", len(cps))
	fmt.Fprintf(w, "  initiator: sync %.1f = setup %.1f + send %.1f + wait %.1f + finish %.1f\n",
		float64(sync)/n/1000, float64(setup)/n/1000, float64(send)/n/1000,
		float64(wait)/n/1000, float64(finish)/n/1000)
	fmt.Fprintf(w, "  last responder: pending-masked %.1f + irq-latency %.1f + masked-dispatch %.1f + bus-queue %.1f\n",
		float64(pend)/n/1000, float64(irq)/n/1000, float64(disp)/n/1000, float64(bus)/n/1000)
	fmt.Fprintf(w, "  why last: masked %d, dispatch %d, bus %d\n",
		why["masked"], why["dispatch"], why["bus"])

	tot := p.Totals()
	var all int64
	for _, v := range tot {
		all += v
	}
	if all > 0 {
		fmt.Fprintf(w, "\nmachine-wide leaf-phase shares:\n")
		for ph := 0; ph < NumPhases; ph++ {
			if tot[ph] == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-12s %6.2f%%  %12.1f us\n",
				Phase(ph), 100*float64(tot[ph])/float64(all), float64(tot[ph])/1000)
		}
	}
	return nil
}

// WriteDir writes the full profile — folded.txt (flamegraph input),
// timeline.csv, locks.txt, critical.txt — into dir, creating it.
func WriteDir(p *Profiler, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"folded.txt", p.WriteFolded},
		{"timeline.csv", p.WriteTimeline},
		{"locks.txt", p.WriteLocks},
		{"critical.txt", p.WriteCriticalPath},
		{"shootdowns.json", p.WriteShootdowns},
	}
	for _, f := range files {
		fh, err := os.Create(filepath.Join(dir, f.name))
		if err != nil {
			return err
		}
		if err := f.write(fh); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	return nil
}
