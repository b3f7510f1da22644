// Package ptable implements two-level page tables in simulated physical
// memory, modeled on the NS32382 MMU used by the Encore Multimax.
//
// A 32-bit virtual address splits into a 10-bit directory index, a 10-bit
// second-level index, and a 12-bit page offset. Second-level tables occupy
// exactly one page frame. Because the tables live in simulated physical
// memory, TLB hardware reloads read real PTE words and reference/modify-bit
// writebacks store real PTE words — the two hardware behaviours (Section 3
// of the paper) that force remote processors to be stalled during pmap
// updates.
//
// The page-sized second-level chunks also enable the pmap module's
// structural lazy evaluation: a missing second-level table proves that an
// entire 4 MB address range is unmapped, so range operations (and shootdown
// checks) can skip it wholesale (Section 7.2).
package ptable

import (
	"fmt"

	"shootdown/internal/mem"
)

// VAddr is a 32-bit virtual byte address.
type VAddr uint32

// Virtual-address geometry.
const (
	DirShift   = 22
	TableShift = mem.PageShift
	IndexMask  = 0x3FF // 10 bits at each level

	// SpanSecondLevel is the VA range covered by one second-level table.
	SpanSecondLevel = 1 << DirShift // 4 MB
)

// Page returns va rounded down to its page base.
func (va VAddr) Page() VAddr { return va &^ mem.PageMask }

// DirIndex returns the first-level (directory) index of va.
func (va VAddr) DirIndex() uint32 { return uint32(va) >> DirShift & IndexMask }

// TableIndex returns the second-level index of va.
func (va VAddr) TableIndex() uint32 { return uint32(va) >> TableShift & IndexMask }

// Offset returns the within-page byte offset of va.
func (va VAddr) Offset() uint32 { return uint32(va) & mem.PageMask }

// PTE is a 32-bit page-table entry:
//
//	bit 0    V   valid
//	bit 1    W   writable
//	bit 2    R   referenced (set by TLB writeback)
//	bit 3    M   modified   (set by TLB writeback)
//	bits 12+ PFN physical frame number
//
// Directory entries use the same encoding (V + frame of second-level table).
type PTE uint32

// PTE flag bits.
const (
	PTEValid      PTE = 1 << 0
	PTEWritable   PTE = 1 << 1
	PTEReferenced PTE = 1 << 2
	PTEModified   PTE = 1 << 3
)

// Make builds a valid PTE mapping the given frame with the given writability.
func Make(f mem.Frame, writable bool) PTE {
	p := PTE(uint32(f)<<mem.PageShift) | PTEValid
	if writable {
		p |= PTEWritable
	}
	return p
}

// Valid reports whether the entry maps a page.
func (p PTE) Valid() bool { return p&PTEValid != 0 }

// Writable reports whether the mapping permits writes.
func (p PTE) Writable() bool { return p&PTEWritable != 0 }

// Referenced reports the reference bit.
func (p PTE) Referenced() bool { return p&PTEReferenced != 0 }

// Modified reports the modify bit.
func (p PTE) Modified() bool { return p&PTEModified != 0 }

// Frame returns the mapped physical frame.
func (p PTE) Frame() mem.Frame { return mem.Frame(uint32(p) >> mem.PageShift) }

// WithFlags returns p with the given flag bits set.
func (p PTE) WithFlags(flags PTE) PTE { return p | flags }

// WithoutFlags returns p with the given flag bits cleared.
func (p PTE) WithoutFlags(flags PTE) PTE { return p &^ flags }

func (p PTE) String() string {
	if !p.Valid() {
		return "PTE(invalid)"
	}
	flags := ""
	if p.Writable() {
		flags += "W"
	}
	if p.Referenced() {
		flags += "R"
	}
	if p.Modified() {
		flags += "M"
	}
	return fmt.Sprintf("PTE(frame=%d %s)", p.Frame(), flags)
}

// Table is a two-level page table rooted at a directory frame in physical
// memory. Table tracks no software state beyond the root: everything lives
// in simulated physical memory, where the (simulated) MMU hardware can see
// and mutate it.
type Table struct {
	mem  *mem.PhysMem
	root mem.Frame
	// Walks counts second-level PTE reads, exported for cost accounting
	// and lazy-evaluation effectiveness metrics.
	Walks int

	// OnWrite, when set, observes every software-initiated PTE write
	// (Enter, Update, Remove — not the MMU's reference/modify writebacks,
	// which model hardware stores). The consistency oracle uses it to
	// shadow the table; it must not mutate the table.
	OnWrite func(va VAddr, pte PTE)
	// OnDestroy, when set, observes Destroy.
	OnDestroy func()
}

// New allocates an empty two-level table.
func New(m *mem.PhysMem) (*Table, error) {
	root, err := m.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("ptable: allocating directory: %w", err)
	}
	return &Table{mem: m, root: root}, nil
}

func (t *Table) dirEntryAddr(va VAddr) mem.PAddr {
	return t.root.Addr(va.DirIndex() * mem.WordSize)
}

// PTEAddr returns the physical address of the second-level PTE for va and
// whether the second-level table exists. The MMU reload path and the pmap
// module both go through this: the PTE's physical address is what the TLB
// writes reference/modify bits back to.
func (t *Table) PTEAddr(va VAddr) (mem.PAddr, bool) {
	dirE := PTE(t.mem.ReadWord(t.dirEntryAddr(va)))
	if !dirE.Valid() {
		return 0, false
	}
	return dirE.Frame().Addr(va.TableIndex() * mem.WordSize), true
}

// Lookup walks the table for va. It returns the PTE, the PTE's physical
// address (for writeback), and whether the walk reached a second-level
// entry at all (an invalid PTE with ok=true means "slot exists, unmapped").
func (t *Table) Lookup(va VAddr) (pte PTE, pteAddr mem.PAddr, ok bool) {
	addr, ok := t.PTEAddr(va)
	if !ok {
		return 0, 0, false
	}
	t.Walks++
	return PTE(t.mem.ReadWord(addr)), addr, true
}

// Enter installs pte for va, allocating the second-level table if needed.
func (t *Table) Enter(va VAddr, pte PTE) error {
	dirAddr := t.dirEntryAddr(va)
	dirE := PTE(t.mem.ReadWord(dirAddr))
	if !dirE.Valid() {
		f, err := t.mem.AllocFrame()
		if err != nil {
			return fmt.Errorf("ptable: allocating second-level table: %w", err)
		}
		dirE = Make(f, true)
		t.mem.WriteWord(dirAddr, uint32(dirE))
	}
	t.mem.WriteWord(dirE.Frame().Addr(va.TableIndex()*mem.WordSize), uint32(pte))
	if t.OnWrite != nil {
		t.OnWrite(va.Page(), pte)
	}
	return nil
}

// Remove invalidates the PTE for va and returns the prior entry.
// Removing an unmapped page returns an invalid PTE and does nothing.
func (t *Table) Remove(va VAddr) PTE {
	addr, ok := t.PTEAddr(va)
	if !ok {
		return 0
	}
	old := PTE(t.mem.ReadWord(addr))
	t.mem.WriteWord(addr, 0)
	if t.OnWrite != nil {
		t.OnWrite(va.Page(), 0)
	}
	return old
}

// Update rewrites the PTE for va in place; it reports false if no
// second-level table covers va.
func (t *Table) Update(va VAddr, pte PTE) bool {
	addr, ok := t.PTEAddr(va)
	if !ok {
		return false
	}
	t.mem.WriteWord(addr, uint32(pte))
	if t.OnWrite != nil {
		t.OnWrite(va.Page(), pte)
	}
	return true
}

// SecondLevelPresent reports whether a second-level table covers va.
// A false result proves the entire surrounding 4 MB region is unmapped —
// the structural lazy-evaluation fact the Multimax pmap module exploits.
func (t *Table) SecondLevelPresent(va VAddr) bool {
	_, ok := t.PTEAddr(va)
	return ok
}

// ForEach calls fn for every *valid* mapping in [start, end), skipping
// absent second-level tables in 4 MB strides. fn may mutate the entry via
// Update/Remove. Iteration is in ascending VA order.
func (t *Table) ForEach(start, end VAddr, fn func(va VAddr, pte PTE)) {
	if end < start {
		panic(fmt.Sprintf("ptable: ForEach range inverted [%#x,%#x)", start, end))
	}
	va := start.Page()
	for va < end {
		dirE := PTE(t.mem.ReadWord(t.dirEntryAddr(va)))
		if !dirE.Valid() {
			// Skip to the next 4 MB boundary.
			next := (va &^ (SpanSecondLevel - 1)) + SpanSecondLevel
			if next <= va { // wrapped past the top of the address space
				return
			}
			va = next
			continue
		}
		pte := PTE(t.mem.ReadWord(dirE.Frame().Addr(va.TableIndex() * mem.WordSize)))
		if pte.Valid() {
			fn(va, pte)
		}
		va += mem.PageSize
		if va == 0 { // wrapped
			return
		}
	}
}

// AnyValid reports whether any page in [start, end) is mapped.
// This is the pmap module's lazy-evaluation check ("approximately 2
// instructions per check" in the paper; here one bounded walk).
func (t *Table) AnyValid(start, end VAddr) bool {
	found := false
	t.ForEach(start, end, func(VAddr, PTE) { found = true })
	return found
}

// CountValid returns the number of mapped pages in [start, end).
func (t *Table) CountValid(start, end VAddr) int {
	n := 0
	t.ForEach(start, end, func(VAddr, PTE) { n++ })
	return n
}

// Destroy frees every frame owned by the table structure itself
// (directory + second-level tables). Mapped data frames are not freed;
// they belong to the VM layer.
func (t *Table) Destroy() {
	for i := uint32(0); i <= IndexMask; i++ {
		dirAddr := t.root.Addr(i * mem.WordSize)
		dirE := PTE(t.mem.ReadWord(dirAddr))
		if dirE.Valid() {
			t.mem.FreeFrame(dirE.Frame())
			t.mem.WriteWord(dirAddr, 0)
		}
	}
	t.mem.FreeFrame(t.root)
	if t.OnDestroy != nil {
		t.OnDestroy()
	}
}
