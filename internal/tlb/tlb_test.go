package tlb

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"shootdown/internal/mem"
	"shootdown/internal/ptable"
)

func pte(frame uint32, w bool) ptable.PTE { return ptable.Make(mem.Frame(frame), w) }

func TestProbeMissThenHit(t *testing.T) {
	b := New(Config{Size: 4})
	if _, hit := b.Probe(0x1000, ASIDNone); hit {
		t.Fatal("hit on empty TLB")
	}
	b.Insert(0x1000, ASIDNone, pte(7, true))
	e, hit := b.Probe(0x1234, ASIDNone) // same page, different offset
	if !hit {
		t.Fatal("miss after insert")
	}
	if e.PTE.Frame() != 7 || !e.PTE.Writable() {
		t.Fatalf("cached entry wrong: %+v", e)
	}
	st := b.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInsertReplacesSamePage(t *testing.T) {
	b := New(Config{Size: 4})
	b.Insert(0x1000, ASIDNone, pte(1, true))
	b.Insert(0x1000, ASIDNone, pte(2, false))
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	e, _ := b.Probe(0x1000, ASIDNone)
	if e.PTE.Frame() != 2 || e.PTE.Writable() {
		t.Fatalf("replacement failed: %+v", e)
	}
}

func TestFIFOEviction(t *testing.T) {
	b := New(Config{Size: 2, Replacement: FIFO})
	b.Insert(0x1000, ASIDNone, pte(1, true))
	b.Insert(0x2000, ASIDNone, pte(2, true))
	// Touch the older entry; FIFO must ignore recency.
	b.Probe(0x1000, ASIDNone)
	b.Insert(0x3000, ASIDNone, pte(3, true))
	if _, hit := b.Probe(0x1000, ASIDNone); hit {
		t.Fatal("FIFO should have evicted the oldest insert (0x1000)")
	}
	if _, hit := b.Probe(0x2000, ASIDNone); !hit {
		t.Fatal("0x2000 should survive")
	}
}

func TestLRUEviction(t *testing.T) {
	b := New(Config{Size: 2, Replacement: LRU})
	b.Insert(0x1000, ASIDNone, pte(1, true))
	b.Insert(0x2000, ASIDNone, pte(2, true))
	b.Probe(0x1000, ASIDNone) // 0x2000 is now least recently used
	b.Insert(0x3000, ASIDNone, pte(3, true))
	if _, hit := b.Probe(0x2000, ASIDNone); hit {
		t.Fatal("LRU should have evicted 0x2000")
	}
	if _, hit := b.Probe(0x1000, ASIDNone); !hit {
		t.Fatal("recently used 0x1000 should survive")
	}
	if b.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d", b.Stats().Evictions)
	}
}

func TestInvalidatePage(t *testing.T) {
	b := New(Config{Size: 4})
	b.Insert(0x1000, ASIDNone, pte(1, true))
	if !b.InvalidatePage(0x1000, ASIDNone) {
		t.Fatal("InvalidatePage missed present entry")
	}
	if b.InvalidatePage(0x1000, ASIDNone) {
		t.Fatal("InvalidatePage hit absent entry")
	}
	if _, hit := b.Probe(0x1000, ASIDNone); hit {
		t.Fatal("entry survived invalidation")
	}
}

func TestInvalidateRange(t *testing.T) {
	b := New(Config{Size: 8})
	for i := 0; i < 6; i++ {
		b.Insert(ptable.VAddr(i)<<mem.PageShift, ASIDNone, pte(uint32(i), true))
	}
	n := b.InvalidateRange(0x1000, 0x4000, ASIDNone)
	if n != 3 {
		t.Fatalf("invalidated %d, want 3 (pages 1,2,3)", n)
	}
	for _, page := range []ptable.VAddr{0x0000, 0x4000, 0x5000} {
		if _, hit := b.Probe(page, ASIDNone); !hit {
			t.Fatalf("page %#x should survive", page)
		}
	}
}

func TestFlush(t *testing.T) {
	b := New(Config{Size: 8})
	for i := 0; i < 5; i++ {
		b.Insert(ptable.VAddr(i)<<mem.PageShift, ASIDNone, pte(uint32(i), true))
	}
	b.Flush()
	if b.Len() != 0 {
		t.Fatalf("Len after flush = %d", b.Len())
	}
	if b.Stats().Flushes != 1 {
		t.Fatalf("Flushes = %d", b.Stats().Flushes)
	}
}

func TestASIDTagging(t *testing.T) {
	b := New(Config{Size: 8, Tagged: true})
	b.Insert(0x1000, 1, pte(11, true))
	b.Insert(0x1000, 2, pte(22, true))
	if b.Len() != 2 {
		t.Fatalf("tagged TLB should hold both: Len = %d", b.Len())
	}
	e, hit := b.Probe(0x1000, 1)
	if !hit || e.PTE.Frame() != 11 {
		t.Fatalf("ASID 1 probe = %+v,%v", e, hit)
	}
	e, hit = b.Probe(0x1000, 2)
	if !hit || e.PTE.Frame() != 22 {
		t.Fatalf("ASID 2 probe = %+v,%v", e, hit)
	}
	if _, hit := b.Probe(0x1000, 3); hit {
		t.Fatal("ASID 3 should miss")
	}
	b.FlushASID(1)
	if _, hit := b.Probe(0x1000, 1); hit {
		t.Fatal("ASID 1 should be flushed")
	}
	if _, hit := b.Probe(0x1000, 2); !hit {
		t.Fatal("ASID 2 should survive FlushASID(1)")
	}
}

func TestUntaggedIgnoresASID(t *testing.T) {
	b := New(Config{Size: 4})
	b.Insert(0x1000, 1, pte(1, true))
	if _, hit := b.Probe(0x1000, 9); !hit {
		t.Fatal("untagged TLB must ignore ASID on probe")
	}
	b.FlushASID(5) // equivalent to Flush on untagged
	if b.Len() != 0 {
		t.Fatal("FlushASID on untagged TLB should flush everything")
	}
}

func TestUpdateFlags(t *testing.T) {
	b := New(Config{Size: 4})
	b.Insert(0x1000, ASIDNone, pte(1, true))
	b.UpdateFlags(0x1000, ASIDNone, ptable.PTEReferenced|ptable.PTEModified)
	e, _ := b.Probe(0x1000, ASIDNone)
	if !e.PTE.Referenced() || !e.PTE.Modified() {
		t.Fatalf("flags not cached: %v", e.PTE)
	}
	// No-op on absent entries.
	b.UpdateFlags(0x9000, ASIDNone, ptable.PTEReferenced)
}

func TestDefaults(t *testing.T) {
	b := New(Config{})
	cfg := b.Config()
	if cfg.Size != 64 {
		t.Fatalf("default size = %d, want 64", cfg.Size)
	}
	if cfg.Replacement != FIFO || cfg.Writeback != WritebackBlind {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestStringers(t *testing.T) {
	for _, r := range []Replacement{FIFO, LRU, Replacement(99)} {
		if r.String() == "" {
			t.Fatal("empty Replacement string")
		}
	}
	for _, w := range []WritebackPolicy{WritebackBlind, WritebackInterlocked, WritebackNone, WritebackPolicy(99)} {
		if w.String() == "" {
			t.Fatal("empty WritebackPolicy string")
		}
	}
}

func TestCountWriteback(t *testing.T) {
	b := New(Config{Size: 2})
	b.CountWriteback()
	b.CountWriteback()
	if b.Stats().Writebacks != 2 {
		t.Fatalf("Writebacks = %d", b.Stats().Writebacks)
	}
}

// Property: the TLB never returns a translation that was not inserted and
// not yet invalidated, across random operation sequences — i.e. no stale
// entries survive invalidation, the central correctness property shootdown
// relies on locally.
func TestQuickNoStaleEntries(t *testing.T) {
	for _, repl := range []Replacement{FIFO, LRU} {
		rng := rand.New(rand.NewSource(99))
		b := New(Config{Size: 8, Replacement: repl})
		model := map[ptable.VAddr]ptable.PTE{} // what COULD legally be cached
		for op := 0; op < 5000; op++ {
			va := ptable.VAddr(rng.Intn(32)) << mem.PageShift
			switch rng.Intn(4) {
			case 0, 1:
				p := pte(rng.Uint32()&0xFFFF, rng.Intn(2) == 0)
				b.Insert(va, ASIDNone, p)
				model[va] = p
			case 2:
				b.InvalidatePage(va, ASIDNone)
				delete(model, va)
			case 3:
				if e, hit := b.Probe(va, ASIDNone); hit {
					want, ok := model[va]
					if !ok {
						t.Fatalf("%v: stale hit for %#x: %+v", repl, va, e)
					}
					if e.PTE != want {
						t.Fatalf("%v: wrong cached PTE for %#x: %v want %v", repl, va, e.PTE, want)
					}
				}
			}
		}
		// After a flush nothing survives.
		b.Flush()
		vas := make([]ptable.VAddr, 0, len(model))
		for va := range model {
			vas = append(vas, va)
		}
		sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
		for _, va := range vas {
			if _, hit := b.Probe(va, ASIDNone); hit {
				t.Fatalf("%v: entry for %#x survived flush", repl, va)
			}
		}
	}
}

// Property: Len never exceeds capacity.
func TestQuickCapacityRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := New(Config{Size: 6, Replacement: LRU})
	for op := 0; op < 2000; op++ {
		b.Insert(ptable.VAddr(rng.Intn(100))<<mem.PageShift, ASIDNone, pte(rng.Uint32()&0xFFFF, true))
		if b.Len() > 6 {
			t.Fatalf("Len = %d exceeds capacity", b.Len())
		}
	}
}

// TestProbeAllocatesNothing pins the probe every simulated memory access
// makes, hit and miss, at zero host allocations.
func TestProbeAllocatesNothing(t *testing.T) {
	b := New(Config{Size: 64})
	b.Insert(0x1000, ASIDNone, pte(1, true))
	for _, va := range []ptable.VAddr{0x1000, 0x2000} {
		if allocs := testing.AllocsPerRun(100, func() { b.Probe(va, ASIDNone) }); allocs != 0 {
			t.Errorf("Probe(%#x): %v allocations, want 0", va, allocs)
		}
	}
}

// TestNewCostIndependentOfSize: a TLB allocates slots only as it fills
// them, so an empty 4096-entry TLB costs the host what a 64-entry one
// does.
func TestNewCostIndependentOfSize(t *testing.T) {
	build := func(size int) uint64 {
		const n = 100
		tlbs := make([]*TLB, n)
		var before, after runtime.MemStats
		//lint:allow simdeterminism the test measures the host cost of a TLB; no simulated result reads it
		runtime.ReadMemStats(&before)
		for i := range tlbs {
			tlbs[i] = New(Config{Size: size})
		}
		//lint:allow simdeterminism the test measures the host cost of a TLB; no simulated result reads it
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	if small, large := build(64), build(4096); small != large {
		t.Errorf("New: %d B at Size 64, %d B at Size 4096", small, large)
	}
}
