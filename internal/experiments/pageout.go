package experiments

import (
	"fmt"

	"shootdown/internal/kernel"
	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
)

// PageoutResult quantifies the claim §5 makes in passing: "Pageout does
// cause shootdowns, but the overhead of actually performing the pageout is
// much greater than the overhead of the associated shootdown."
type PageoutResult struct {
	PagesEvicted   int
	PageIns        int
	TotalPageoutMS float64 // virtual time of the daemon's eviction passes
	ShootdownUS    float64 // summed initiator time of the pageout's shootdowns
	ShootdownShare float64 // fraction of the pageout spent shooting down
	DataIntact     bool
}

// Pageout runs a memory-pressure scenario: worker threads loop over a
// working set while a pageout daemon evicts cold pages; the workers fault
// them back in. Every byte must survive the round trips.
func Pageout(a *Args) (PageoutResult, error) {
	var out PageoutResult
	const pages = 48
	intact := true
	var pageIns int
	var userUS []float64
	err := a.In.runWorld(kernel.Config{
		Machine: machine.Options{NumCPUs: 4, MemFrames: 4096, Seed: a.Seed},
	}, func(k *kernel.Kernel) error {
		task, err := k.NewTask("pressure")
		if err != nil {
			return err
		}
		task.Spawn("main", func(th *kernel.Thread) {
			va, err := th.VMAllocate(pages * mem.PageSize)
			if err != nil {
				th.Fail(err)
				return
			}
			for p := 0; p < pages; p++ {
				if err := th.Write(va+ptable.VAddr(p*mem.PageSize), uint32(5000+p)); err != nil {
					th.Fail(err)
					return
				}
			}
			// Two workers keep a hot subset referenced from other processors.
			done := false
			var workers []*kernel.Thread
			for w := 0; w < 2; w++ {
				w := w
				workers = append(workers, task.Spawn(fmt.Sprintf("worker%d", w), func(c *kernel.Thread) {
					for !done {
						for p := w * 4; p < w*4+4; p++ {
							v, err := c.Read(va + ptable.VAddr(p*mem.PageSize))
							if err != nil || v != uint32(5000+p) {
								intact = false
								return
							}
						}
						c.Compute(2_000_000)
					}
				}))
			}
			th.Compute(5_000_000)
			// The pageout daemon: repeated second-chance passes.
			t0 := th.Now()
			for pass := 0; pass < 6; pass++ {
				out.PagesEvicted += th.PageOut(8)
				th.Compute(1_000_000)
			}
			out.TotalPageoutMS = float64(th.Now()-t0) / 1e6
			// Touch everything again: swapped pages come back from disk.
			for p := 0; p < pages; p++ {
				v, err := th.Read(va + ptable.VAddr(p*mem.PageSize))
				if err != nil || v != uint32(5000+p) {
					intact = false
					break
				}
			}
			done = true
			for _, w := range workers {
				th.Join(w)
			}
		})
		return nil
	}, func(k *kernel.Kernel) {
		pageIns = int(k.VM.Stats().PageIns)
		_, userUS = k.Trace.InitiatorTimes()
	})
	if err != nil {
		return out, err
	}
	out.DataIntact = intact
	out.PageIns = pageIns
	for _, us := range userUS {
		out.ShootdownUS += us
	}
	if out.TotalPageoutMS > 0 {
		out.ShootdownShare = out.ShootdownUS / (out.TotalPageoutMS * 1000)
	}
	return out, nil
}

// Doc is the comparison.
func (r PageoutResult) Doc() Doc {
	var d Doc
	d.line("Extension: pageout under memory pressure (§5's aside, quantified)\n")
	d.row("pages evicted\t%d", r.PagesEvicted)
	d.row("pages faulted back in\t%d", r.PageIns)
	d.row("pageout daemon time\t%.1f ms", r.TotalPageoutMS)
	d.row("shootdown time within it\t%.0f µs (%.1f%%)", r.ShootdownUS, 100*r.ShootdownShare)
	d.row("data intact after round trips\t%v", r.DataIntact)
	d.line("\n(\"Pageout does cause shootdowns, but the overhead of actually performing the")
	d.line(" pageout is much greater than the overhead of the associated shootdown.\")")
	return d
}
