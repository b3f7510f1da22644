package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"shootdown/internal/core"
	"shootdown/internal/machine"
	"shootdown/internal/pmap"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/trace"
	"shootdown/internal/xpr"
)

// PoolsResult measures the Section 8 restructuring for large machines:
// with the kernel address space and processors divided into pools, a
// shootdown on pooled kernel memory involves only the pool, so its cost
// stays flat as the machine grows — against the machine-wide cost, which
// grows linearly and then congests.
type PoolsResult struct {
	PoolSize int
	Rows     []PoolsRow
}

// PoolsRow is one machine size.
type PoolsRow struct {
	NCPUs    int
	GlobalUS float64 // machine-wide kernel shootdown
	PooledUS float64 // pool-confined kernel shootdown
}

// poolSize is the number of processors in each pool.
const poolSize = 8

// Pools measures pooled vs global kernel shootdowns on busy machines of
// increasing size.
func Pools(a *Args) (PoolsResult, error) {
	out := PoolsResult{PoolSize: poolSize}
	for _, n := range []int{16, 32, 64} {
		g, p, err := runPoolCase(a.Seed, n, a.In)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, PoolsRow{NCPUs: n, GlobalUS: g, PooledUS: p})
	}
	return out, nil
}

// runPoolCase builds an n-CPU machine with every processor busy, maps one
// kernel page in a pool-0-confined region and one in the global region,
// and measures the initiator time of reprotecting each.
func runPoolCase(seed int64, ncpu int, in Instrument) (globalUS, pooledUS float64, err error) {
	obs := trace.Stream(in.Tracer, in.Flight, in.Profiler)
	eng := sim.New(sim.WithMaxTime(120_000_000_000), sim.WithTracer(obs))
	m := machine.New(eng, machine.Options{NumCPUs: ncpu, MemFrames: 4096, Seed: seed})
	obs.BeginRun("pools", int64(m.Costs().IRQLatency))
	sd := core.New(m, core.Options{})
	buf := xpr.New(4096)
	sd.Trace = buf
	sys, err := pmap.NewSystem(m, sd)
	if err != nil {
		return 0, 0, err
	}

	// Pool regions: 16 MB of kernel space per pool, pool i owning CPUs
	// [i*poolSize, (i+1)*poolSize).
	const poolSpan = 0x0100_0000
	poolBase := machine.KernelBase + 0x1000_0000
	var pools []pmap.KernelPool
	for i := 0; i*poolSize < ncpu; i++ {
		var cpus []int
		for c := i * poolSize; c < (i+1)*poolSize && c < ncpu; c++ {
			cpus = append(cpus, c)
		}
		pools = append(pools, pmap.KernelPool{
			Start: poolBase + ptable.VAddr(i*poolSpan),
			End:   poolBase + ptable.VAddr((i+1)*poolSpan),
			CPUs:  cpus,
		})
	}
	if err := sys.ConfigureKernelPools(pools); err != nil {
		return 0, 0, err
	}

	// One mapped page in pool 0's region, one in the global kernel region.
	pooledVA := pools[0].Start
	globalVA := machine.KernelBase + 0x0080_0000
	for _, va := range []ptable.VAddr{pooledVA, globalVA} {
		f, err := m.Phys.AllocFrame()
		if err != nil {
			return 0, 0, err
		}
		if err := sys.Kernel.Table.Enter(va, ptable.Make(f, true)); err != nil {
			return 0, 0, err
		}
	}

	// Every other processor is busy (responsive to IPIs).
	done := false
	for cpu := 1; cpu < ncpu; cpu++ {
		cpu := cpu
		eng.Spawn(fmt.Sprintf("busy%d", cpu), func(p *sim.Proc) {
			ex := m.Attach(p, cpu)
			defer ex.Detach()
			for !done {
				ex.Advance(20_000)
			}
		})
	}
	eng.Spawn("initiator", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		ex.Advance(500_000)
		sys.Kernel.Protect(ex, globalVA, globalVA+0x1000, pmap.ProtRead)
		ex.Advance(500_000)
		sys.Kernel.Protect(ex, pooledVA, pooledVA+0x1000, pmap.ProtRead)
		done = true
	})
	err = eng.Run()
	obs.Emit(trace.KindRunEnd, int64(eng.Now()), -1, "", 0, 0)
	if err != nil {
		return 0, 0, err
	}
	ks, _ := buf.InitiatorTimes()
	if len(ks) != 2 {
		return 0, 0, fmt.Errorf("experiments: pools: %d kernel shootdowns, want 2", len(ks))
	}
	return ks[0], ks[1], nil
}

// Render prints the scaling comparison.
func (r PoolsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: processor pools (§8) — kernel shootdown cost, pool size %d, all CPUs busy\n\n", r.PoolSize)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "machine CPUs\tmachine-wide shootdown (µs)\tpool-confined shootdown (µs)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\n", row.NCPUs, row.GlobalUS, row.PooledUS)
	}
	w.Flush()
	fmt.Fprintf(&b, "\n(\"one possible restructuring is to divide both the processors and the kernel\n")
	fmt.Fprintf(&b, " virtual address space into pools ... most kernel pmap shootdowns occurring\n")
	fmt.Fprintf(&b, " within pools of processors instead of across the entire machine\" — the\n")
	fmt.Fprintf(&b, " pooled cost stays flat as the machine grows)\n")
	return b.String()
}
