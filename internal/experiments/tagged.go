package experiments

import (
	"fmt"

	"shootdown/internal/kernel"
	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/tlb"
)

// TaggedTLBResult compares the stock Multimax TLB (untagged, flushed on
// every context switch) against the Section 10 extension for ASID-tagged
// TLBs (MIPS-style: entries retained across switches, pmaps released
// lazily by shootdowns).
type TaggedTLBResult struct {
	Untagged, Tagged TaggedTLBRow
}

// TaggedTLBRow is one hardware configuration's measurements.
type TaggedTLBRow struct {
	RuntimeMS    float64
	TLBMisses    uint64
	TLBFlushes   uint64
	LazyReleases uint64
}

// TaggedTLB runs a context-switch-heavy workload — two tasks alternating
// on one processor, each touching a working set every slice — on both
// TLB designs.
func TaggedTLB(a *Args) (TaggedTLBResult, error) {
	var out TaggedTLBResult
	run := func(tagged bool) (TaggedTLBRow, error) {
		var row TaggedTLBRow
		const pages = 12
		const rounds = 60
		err := a.In.runWorld(kernel.Config{
			Machine: machine.Options{
				NumCPUs: 1, MemFrames: 2048, Seed: a.Seed,
				TLB: tlb.Config{Tagged: tagged},
			},
		}, func(k *kernel.Kernel) error {
			k.Pmaps.LazyASIDRelease = tagged
			for name := 0; name < 2; name++ {
				task, err := k.NewTask(fmt.Sprintf("task%d", name))
				if err != nil {
					return err
				}
				task.Spawn(fmt.Sprintf("t%d", name), func(th *kernel.Thread) {
					va, err := th.VMAllocate(pages * mem.PageSize)
					if err != nil {
						th.Fail(err)
						return
					}
					for r := 0; r < rounds; r++ {
						for p := 0; p < pages; p++ {
							if err := th.Write(va+ptable.VAddr(p*mem.PageSize), uint32(r)); err != nil {
								th.Fail(err)
								return
							}
						}
						th.Yield() // context switch to the other task
					}
				})
			}
			return nil
		}, func(k *kernel.Kernel) {
			st := k.M.CPU(0).TLB.Stats()
			row.RuntimeMS = float64(k.Now()) / 1e6
			row.TLBMisses = st.Misses
			row.TLBFlushes = st.Flushes
			if k.Shoot != nil {
				row.LazyReleases = k.Shoot.Stats().LazyReleases
			}
		})
		return row, err
	}
	var err error
	if out.Untagged, err = run(false); err != nil {
		return out, err
	}
	out.Tagged, err = run(true)
	return out, err
}

// Doc is the comparison.
func (r TaggedTLBResult) Doc() Doc {
	var d Doc
	d.line("Extension: ASID-tagged TLBs (§10, MIPS-style) — two tasks ping-ponging on one CPU\n")
	d.row("TLB design\truntime (ms)\tTLB misses\tTLB flushes")
	d.row("untagged, flush on switch (Multimax)\t%.1f\t%d\t%d",
		r.Untagged.RuntimeMS, r.Untagged.TLBMisses, r.Untagged.TLBFlushes)
	d.row("ASID-tagged, lazy release (§10)\t%.1f\t%d\t%d",
		r.Tagged.RuntimeMS, r.Tagged.TLBMisses, r.Tagged.TLBFlushes)
	d.line("\nspeedup: %.2fx; miss reduction: %.0fx",
		r.Untagged.RuntimeMS/r.Tagged.RuntimeMS,
		float64(r.Untagged.TLBMisses)/float64(max(r.Tagged.TLBMisses, 1)))
	d.line("(the shootdown algorithm extends to such buffers by treating a pmap as in")
	d.line(" use until its entries are explicitly flushed; a responder that retains a")
	d.line(" shot space flushes and releases the whole space instead of invalidating)")
	return d
}
