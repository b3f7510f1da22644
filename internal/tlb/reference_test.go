package tlb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"shootdown/internal/mem"
	"shootdown/internal/ptable"
)

// fixedTLB is the reference model: the TLB as a fully allocated array of
// Size slots, each scan covering all of them. TLB stores only the prefix
// of slots it has filled; the equivalence test below checks that this is
// only a storage choice.
type fixedTLB struct {
	cfg     Config
	entries []Entry
	clock   uint64
	stats   Stats
}

func newFixed(cfg Config) *fixedTLB {
	cfg = cfg.withDefaults()
	return &fixedTLB{cfg: cfg, entries: make([]Entry, cfg.Size)}
}

func (t *fixedTLB) match(va ptable.VAddr, asid ASID) int {
	page := va.Page()
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.VA == page && (!t.cfg.Tagged || e.ASID == asid) {
			return i
		}
	}
	return -1
}

func (t *fixedTLB) Probe(va ptable.VAddr, asid ASID) (Entry, bool) {
	i := t.match(va, asid)
	if i < 0 {
		t.stats.Misses++
		return Entry{}, false
	}
	t.clock++
	t.entries[i].lastUse = t.clock
	t.stats.Hits++
	return t.entries[i], true
}

func (t *fixedTLB) Insert(va ptable.VAddr, asid ASID, pte ptable.PTE) {
	t.clock++
	t.stats.Inserts++
	if i := t.match(va, asid); i >= 0 {
		t.entries[i].PTE = pte
		t.entries[i].lastUse = t.clock
		return
	}
	slot := -1
	for i := range t.entries {
		if !t.entries[i].Valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = t.victim()
		t.stats.Evictions++
	}
	t.entries[slot] = Entry{Valid: true, VA: va.Page(), ASID: asid, PTE: pte, seq: t.clock, lastUse: t.clock}
}

func (t *fixedTLB) victim() int {
	switch t.cfg.Replacement {
	case LRU:
		best, bestUse := 0, t.entries[0].lastUse
		for i := 1; i < len(t.entries); i++ {
			if t.entries[i].lastUse < bestUse {
				best, bestUse = i, t.entries[i].lastUse
			}
		}
		return best
	default: // FIFO
		best, bestSeq := 0, t.entries[0].seq
		for i := 1; i < len(t.entries); i++ {
			if t.entries[i].seq < bestSeq {
				best, bestSeq = i, t.entries[i].seq
			}
		}
		return best
	}
}

func (t *fixedTLB) UpdateFlags(va ptable.VAddr, asid ASID, flags ptable.PTE) {
	if i := t.match(va, asid); i >= 0 {
		t.entries[i].PTE = t.entries[i].PTE.WithFlags(flags)
	}
}

func (t *fixedTLB) InvalidatePage(va ptable.VAddr, asid ASID) bool {
	if i := t.match(va, asid); i >= 0 {
		t.entries[i] = Entry{}
		t.stats.Invalidates++
		return true
	}
	return false
}

func (t *fixedTLB) InvalidateRange(start, end ptable.VAddr, asid ASID) int {
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.VA >= start.Page() && e.VA < end && (!t.cfg.Tagged || e.ASID == asid) {
			t.entries[i] = Entry{}
			t.stats.Invalidates++
			n++
		}
	}
	return n
}

func (t *fixedTLB) Flush() {
	clear(t.entries)
	t.stats.Flushes++
}

func (t *fixedTLB) FlushASID(asid ASID) {
	if !t.cfg.Tagged {
		t.Flush()
		return
	}
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].ASID == asid {
			t.entries[i] = Entry{}
		}
	}
	t.stats.Flushes++
}

func (t *fixedTLB) Len() int {
	n := 0
	for _, e := range t.entries {
		if e.Valid {
			n++
		}
	}
	return n
}

func (t *fixedTLB) Snapshot() Snap {
	s := Snap{Clock: t.clock, Stats: t.stats}
	for i, e := range t.entries {
		if e.Valid {
			s.Entries = append(s.Entries, EntrySnap{
				Slot: i, VA: uint32(e.VA), ASID: uint16(e.ASID), PTE: uint32(e.PTE),
				Seq: e.seq, LastUse: e.lastUse,
			})
		}
	}
	return s
}

// TestMatchesFixedSlotReference drives the on-demand TLB and the fixed
// Size-slot reference with the same seeded random operations and checks,
// after every one, that they return the same values and hold the same
// complete state: slot numbers, insertion and access order, clock and
// counters. Flushes are rare, so most sequences fill the TLB and evict.
func TestMatchesFixedSlotReference(t *testing.T) {
	for _, size := range []int{1, 6, 64} {
		for _, repl := range []Replacement{FIFO, LRU} {
			for _, tagged := range []bool{false, true} {
				cfg := Config{Size: size, Replacement: repl, Tagged: tagged}
				t.Run(fmt.Sprintf("size%d-%v-tagged%v", size, repl, tagged), func(t *testing.T) {
					for seed := int64(1); seed <= 4; seed++ {
						compareWithReference(t, cfg, seed)
					}
				})
			}
		}
	}
}

func compareWithReference(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lazy, ref := New(cfg), newFixed(cfg)
	pages := 2*cfg.Size + 2 // enough distinct pages to fill and evict
	page := func() ptable.VAddr {
		return ptable.VAddr(rng.Intn(pages))<<mem.PageShift | ptable.VAddr(rng.Intn(1<<mem.PageShift))
	}
	asid := func() ASID { return ASID(rng.Intn(3)) }
	for op := 0; op < 3000; op++ {
		var name string
		var got, want any
		switch k := rng.Intn(100); {
		case k < 40:
			va, a, p := page(), asid(), pte(rng.Uint32()&0xFFFF, rng.Intn(2) == 0)
			name = fmt.Sprintf("Insert(%#x, %d)", va, a)
			lazy.Insert(va, a, p)
			ref.Insert(va, a, p)
		case k < 70:
			va, a := page(), asid()
			name = fmt.Sprintf("Probe(%#x, %d)", va, a)
			e, hit := lazy.Probe(va, a)
			re, rhit := ref.Probe(va, a)
			got, want = []any{e, hit}, []any{re, rhit}
		case k < 78:
			va, a := page(), asid()
			name = fmt.Sprintf("UpdateFlags(%#x, %d)", va, a)
			lazy.UpdateFlags(va, a, ptable.PTEReferenced|ptable.PTEModified)
			ref.UpdateFlags(va, a, ptable.PTEReferenced|ptable.PTEModified)
		case k < 90:
			va, a := page(), asid()
			name = fmt.Sprintf("InvalidatePage(%#x, %d)", va, a)
			got, want = lazy.InvalidatePage(va, a), ref.InvalidatePage(va, a)
		case k < 97:
			start, a := page(), asid()
			end := start + ptable.VAddr(rng.Intn(4)+1)<<mem.PageShift
			name = fmt.Sprintf("InvalidateRange(%#x, %#x, %d)", start, end, a)
			got, want = lazy.InvalidateRange(start, end, a), ref.InvalidateRange(start, end, a)
		case k < 99:
			a := asid()
			name = fmt.Sprintf("FlushASID(%d)", a)
			lazy.FlushASID(a)
			ref.FlushASID(a)
		default:
			name = "Flush()"
			lazy.Flush()
			ref.Flush()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d op %d %s: returned %v, reference %v", seed, op, name, got, want)
		}
		if got, want := lazy.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d op %d %s: state\n%+v\nreference\n%+v", seed, op, name, got, want)
		}
		if got, want := lazy.Len(), ref.Len(); got != want {
			t.Fatalf("seed %d op %d %s: Len %d, reference %d", seed, op, name, got, want)
		}
	}
}
