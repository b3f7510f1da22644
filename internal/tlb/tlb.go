// Package tlb models a per-processor translation lookaside buffer.
//
// The model reproduces the two TLB features that Section 3 of the paper
// identifies as the root of the consistency problem:
//
//  1. Hardware reload: on a miss the MMU walks the page tables in physical
//     memory and caches whatever it finds, so flushing before a pmap update
//     is useless — the entry can be reloaded while the update is in flight.
//     (The walk itself is performed by the machine layer, which owns the
//     cost model; this package provides the cache.)
//
//  2. Reference/modify-bit writeback: the MMU asynchronously stores R/M bits
//     into PTEs in memory. The WritebackPolicy selects between the blind
//     NS32382-style store (which can corrupt an in-flight pmap update), the
//     MC88200-style interlocked check-validity-then-set (Section 9), and no
//     writeback at all (RP3-style, which eliminates the need to stall
//     responders).
//
// The TLB is fully associative with configurable size and replacement
// policy, and optionally tags entries with address-space identifiers
// (ASIDs), as on the MIPS R2000 discussed in Section 10.
package tlb

import (
	"fmt"
	"math/rand"

	"shootdown/internal/ptable"
)

// Replacement selects the entry-eviction policy.
type Replacement int

// Replacement policies.
const (
	FIFO Replacement = iota
	LRU
	Random
)

func (r Replacement) String() string {
	switch r {
	case FIFO:
		return "FIFO"
	case LRU:
		return "LRU"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// WritebackPolicy selects how reference/modify bits reach memory.
type WritebackPolicy int

// Writeback policies (Sections 3 and 9 of the paper).
const (
	// WritebackBlind stores the bits without revalidating the PTE — the
	// behaviour that forces responders to be stalled during pmap updates.
	WritebackBlind WritebackPolicy = iota
	// WritebackInterlocked re-reads the PTE and only sets bits if the
	// mapping is still valid and unchanged (MC88200).
	WritebackInterlocked
	// WritebackNone never writes R/M bits (RP3: page faults detect
	// modifications instead).
	WritebackNone
)

func (w WritebackPolicy) String() string {
	switch w {
	case WritebackBlind:
		return "blind"
	case WritebackInterlocked:
		return "interlocked"
	case WritebackNone:
		return "none"
	default:
		return fmt.Sprintf("WritebackPolicy(%d)", int(w))
	}
}

// ASID identifies an address space for tagged TLBs. ASIDNone is used when
// tagging is disabled.
type ASID uint16

// ASIDNone is the ASID value used by untagged TLBs.
const ASIDNone ASID = 0

// Config parameterizes a TLB.
type Config struct {
	// Size is the number of entries (fully associative). The NS32382
	// cached 32; we default to 64 if zero.
	Size int
	// Replacement policy; default FIFO.
	Replacement Replacement
	// Writeback selects the R/M-bit policy; default WritebackBlind.
	Writeback WritebackPolicy
	// Tagged enables ASID tags (entries from several address spaces
	// coexist; no flush on context switch).
	Tagged bool
	// Seed drives the Random replacement policy deterministically.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Size == 0 {
		c.Size = 64
	}
	return c
}

// Entry is one cached translation.
type Entry struct {
	Valid bool
	VA    ptable.VAddr // page-aligned
	ASID  ASID
	PTE   ptable.PTE // cached copy, including cached R/M bits

	seq     uint64 // insertion order, for FIFO
	lastUse uint64 // access order, for LRU
}

// Op identifies a TLB event for observers.
type Op uint8

// Observable TLB events.
const (
	OpHit Op = iota
	OpMiss
	OpInsert
	OpEvict
	OpInvalidate
	OpFlush
)

func (o Op) String() string {
	switch o {
	case OpHit:
		return "tlb-hit"
	case OpMiss:
		return "tlb-miss"
	case OpInsert:
		return "tlb-insert"
	case OpEvict:
		return "tlb-evict"
	case OpInvalidate:
		return "tlb-invalidate"
	case OpFlush:
		return "tlb-flush"
	default:
		return "tlb-op"
	}
}

// Observer receives TLB events as they happen; n is the number of entries
// affected. The machine layer wires observers into the trace subsystem with
// timestamps and CPU numbers. Observers must not mutate the TLB and must
// not consume simulated time or randomness (tracing may not perturb
// results).
type Observer func(op Op, n int)

// Stats counts TLB events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Inserts     uint64
	Evictions   uint64
	Invalidates uint64 // single-entry invalidations that hit
	Flushes     uint64 // whole-buffer or per-ASID flushes
	Writebacks  uint64 // R/M bits stored to memory (counted by machine)
}

// TLB is a single processor's translation buffer.
type TLB struct {
	cfg     Config //snap:derived configuration, reapplied from the experiment config on replay
	entries []Entry
	clock   uint64
	rng     *rand.Rand //snap:derived rebuilt from cfg.Seed on restore; position attested by rng_draws
	stats   Stats
	// rngDraws counts victim draws consumed from rng (Random replacement
	// only), so snapshots can attest the stream position directly instead
	// of implying it from the eviction counter.
	rngDraws uint64

	// Observer, when non-nil, receives every TLB event (hit, miss, insert,
	// evict, invalidate, flush).
	//snap:transient observation hook, reattached by the session that installs it
	Observer Observer
}

// observe reports an event to the observer, if any.
func (t *TLB) observe(op Op, n int) {
	if t.Observer != nil {
		t.Observer(op, n)
	}
}

// New creates a TLB with the given configuration.
func New(cfg Config) *TLB {
	cfg = cfg.withDefaults()
	return &TLB{
		cfg:     cfg,
		entries: make([]Entry, cfg.Size),
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
	}
}

// Config returns the TLB's configuration (with defaults applied).
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a snapshot of the event counters.
func (t *TLB) Stats() Stats { return t.stats }

// CountWriteback increments the writeback counter (the machine layer calls
// this when it performs the memory store).
func (t *TLB) CountWriteback() { t.stats.Writebacks++ }

func (t *TLB) match(va ptable.VAddr, asid ASID) int {
	page := va.Page()
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.VA == page && (!t.cfg.Tagged || e.ASID == asid) {
			return i
		}
	}
	return -1
}

// Probe looks up va (for the given ASID when tagged). On a hit it returns
// the cached entry. Probe never consults the page tables: misses are
// resolved by the machine layer's hardware-reload path.
func (t *TLB) Probe(va ptable.VAddr, asid ASID) (Entry, bool) {
	i := t.match(va, asid)
	if i < 0 {
		t.stats.Misses++
		t.observe(OpMiss, 1)
		return Entry{}, false
	}
	t.clock++
	t.entries[i].lastUse = t.clock
	t.stats.Hits++
	t.observe(OpHit, 1)
	return t.entries[i], true
}

// Insert caches a translation, evicting per the replacement policy if full.
// Inserting over an existing entry for the same (va, asid) replaces it.
func (t *TLB) Insert(va ptable.VAddr, asid ASID, pte ptable.PTE) {
	t.clock++
	t.stats.Inserts++
	t.observe(OpInsert, 1)
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
		t.observe(OpEvict, 1)
	}
	t.entries[slot] = Entry{
		Valid:   true,
		VA:      va.Page(),
		ASID:    asid,
		PTE:     pte,
		seq:     t.clock,
		lastUse: t.clock,
	}
}

func (t *TLB) victim() int {
	switch t.cfg.Replacement {
	case LRU:
		best, bestUse := 0, t.entries[0].lastUse
		for i := 1; i < len(t.entries); i++ {
			if t.entries[i].lastUse < bestUse {
				best, bestUse = i, t.entries[i].lastUse
			}
		}
		return best
	case Random:
		t.rngDraws++
		return t.rng.Intn(len(t.entries))
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

// UpdateFlags ORs flag bits into the cached copy of an entry's PTE so the
// hardware does not write the same R/M bits back on every access.
func (t *TLB) UpdateFlags(va ptable.VAddr, asid ASID, flags ptable.PTE) {
	if i := t.match(va, asid); i >= 0 {
		t.entries[i].PTE = t.entries[i].PTE.WithFlags(flags)
	}
}

// InvalidatePage drops the entry for va, returning whether one was present.
func (t *TLB) InvalidatePage(va ptable.VAddr, asid ASID) bool {
	if i := t.match(va, asid); i >= 0 {
		t.entries[i] = Entry{}
		t.stats.Invalidates++
		t.observe(OpInvalidate, 1)
		return true
	}
	return false
}

// InvalidateRange drops all entries for pages in [start, end) under asid
// and returns the number dropped.
func (t *TLB) InvalidateRange(start, end ptable.VAddr, asid ASID) int {
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.VA >= start.Page() && e.VA < end && (!t.cfg.Tagged || e.ASID == asid) {
			t.entries[i] = Entry{}
			t.stats.Invalidates++
			n++
		}
	}
	if n > 0 {
		t.observe(OpInvalidate, n)
	}
	return n
}

// Flush empties the entire buffer.
func (t *TLB) Flush() {
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid {
			n++
		}
		t.entries[i] = Entry{}
	}
	t.stats.Flushes++
	t.observe(OpFlush, n)
}

// FlushASID drops every entry tagged with asid (tagged TLBs only; on an
// untagged TLB it is equivalent to Flush).
func (t *TLB) FlushASID(asid ASID) {
	if !t.cfg.Tagged {
		t.Flush()
		return
	}
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].ASID == asid {
			t.entries[i] = Entry{}
			n++
		}
	}
	t.stats.Flushes++
	t.observe(OpFlush, n)
}

// Len returns the number of valid entries.
func (t *TLB) Len() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid {
			n++
		}
	}
	return n
}

// Entries returns a snapshot of the valid entries (diagnostics and tests).
func (t *TLB) Entries() []Entry {
	var out []Entry
	for _, e := range t.entries {
		if e.Valid {
			out = append(out, e)
		}
	}
	return out
}

// EntrySnap is one cached translation in wire form, including the
// replacement-policy bookkeeping (insertion and access order) that the
// exported Entry fields hide. Slot is the entry's associative slot: two
// TLBs with the same entries in different slots behave identically until
// an eviction, so slot numbers are part of the full state.
type EntrySnap struct {
	Slot    int    `json:"slot"`
	VA      uint32 `json:"va"`
	ASID    uint16 `json:"asid,omitempty"`
	PTE     uint32 `json:"pte"`
	Seq     uint64 `json:"seq"`
	LastUse uint64 `json:"last_use"`
}

// Snap is the TLB's complete state in wire form (DESIGN.md §14): valid
// entries in slot order, the logical clock that orders them, the event
// counters, and the replacement stream's draw count. The stream itself is
// rebuilt from the seed on restore and fast-forwarded by replay; rng_draws
// attests the position explicitly rather than implying it from the
// eviction counter.
type Snap struct {
	Clock   uint64      `json:"clock"`
	Entries []EntrySnap `json:"entries,omitempty"`
	Stats   Stats       `json:"stats"`
	// RNGDraws attests the replacement stream's position (Random mode
	// only; omitted when no draw has happened, which keeps LRU/FIFO wire
	// forms unchanged).
	RNGDraws uint64 `json:"rng_draws,omitempty"`
}

// Snapshot captures the TLB's complete state in a fixed wire order.
func (t *TLB) Snapshot() Snap {
	s := Snap{Clock: t.clock, Stats: t.stats, RNGDraws: t.rngDraws}
	for i, e := range t.entries {
		if !e.Valid {
			continue
		}
		s.Entries = append(s.Entries, EntrySnap{
			Slot: i, VA: uint32(e.VA), ASID: uint16(e.ASID), PTE: uint32(e.PTE),
			Seq: e.seq, LastUse: e.lastUse,
		})
	}
	return s
}
