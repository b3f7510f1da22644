package machine_test

import (
	"testing"

	"shootdown/internal/machine"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
)

// BenchmarkMachineMemoryAccess measures a full simulated load (TLB probe,
// protection check, data fetch) through an Exec.
func BenchmarkMachineMemoryAccess(b *testing.B) {
	eng := sim.New()
	costs := machine.DefaultCosts()
	costs.JitterPct = 0
	m := machine.New(eng, machine.Options{NumCPUs: 1, MemFrames: 64, Costs: costs})
	tab, err := ptable.New(m.Phys)
	if err != nil {
		b.Fatal(err)
	}
	m.SetKernelTable(tab)
	va := machine.KernelBase + 0x1000
	f, _ := m.Phys.AllocFrame()
	if err := tab.Enter(va, ptable.Make(f, true)); err != nil {
		b.Fatal(err)
	}
	eng.Spawn("reader", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, fault := ex.Read(va); fault != nil {
				b.Errorf("fault: %v", fault)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}
