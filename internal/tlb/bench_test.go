package tlb_test

import (
	"testing"

	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/tlb"
)

// BenchmarkTLBProbe measures the TLB model's lookup path.
func BenchmarkTLBProbe(b *testing.B) {
	t := tlb.New(tlb.Config{Size: 64})
	for i := 0; i < 64; i++ {
		t.Insert(ptable.VAddr(i)<<mem.PageShift, tlb.ASIDNone, ptable.Make(mem.Frame(i), true))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Probe(ptable.VAddr(i%64)<<mem.PageShift, tlb.ASIDNone)
	}
}

// BenchmarkTLBProbeOneEntry measures a probe of a TLB holding one entry,
// the shape of a Figure 2 tester CPU's TLB.
func BenchmarkTLBProbeOneEntry(b *testing.B) {
	t := tlb.New(tlb.Config{Size: 64})
	t.Insert(0x1000, tlb.ASIDNone, ptable.Make(1, true))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Probe(ptable.VAddr(i&1+1)<<mem.PageShift, tlb.ASIDNone)
	}
}

// BenchmarkTLBFlushOneEntry measures refilling and flushing a TLB that
// holds one entry.
func BenchmarkTLBFlushOneEntry(b *testing.B) {
	t := tlb.New(tlb.Config{Size: 64})
	for i := 0; i < b.N; i++ {
		t.Insert(0x1000, tlb.ASIDNone, ptable.Make(1, true))
		t.Flush()
	}
}
