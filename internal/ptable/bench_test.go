package ptable_test

import (
	"testing"

	"shootdown/internal/mem"
	"shootdown/internal/ptable"
)

// BenchmarkPageTableWalk measures the two-level walk in simulated memory.
func BenchmarkPageTableWalk(b *testing.B) {
	m := mem.New(64)
	tab, err := ptable.New(m)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := tab.Enter(ptable.VAddr(i)<<mem.PageShift, ptable.Make(mem.Frame(i), true)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(ptable.VAddr(i%16) << mem.PageShift)
	}
}
