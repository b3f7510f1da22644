// Package mem implements the simulated physical memory of the machine:
// a fixed pool of 4 KB page frames, word (32-bit) addressed, with a simple
// free-list frame allocator.
//
// Page tables (package ptable) live inside this memory, so TLB hardware
// reloads and reference/modify-bit writebacks are real in-memory reads and
// writes — exactly the property that creates the consistency problem the
// paper solves.
package mem

import "fmt"

// Memory geometry, matching the NS32382's 4 KB pages.
const (
	PageSize     = 4096 // bytes per page
	PageShift    = 12   // log2(PageSize)
	WordSize     = 4    // bytes per word
	WordsPerPage = PageSize / WordSize
	PageMask     = PageSize - 1
)

// PAddr is a 32-bit physical byte address.
type PAddr uint32

// Frame is a physical page-frame number.
type Frame uint32

// Addr returns the physical address of byte offset off within the frame.
func (f Frame) Addr(off uint32) PAddr { return PAddr(uint32(f)<<PageShift | off&PageMask) }

// FrameOf returns the frame containing physical address pa.
func FrameOf(pa PAddr) Frame { return Frame(pa >> PageShift) }

// PhysMem is the machine's physical memory.
type PhysMem struct {
	frames    [][]uint32 // nil until allocated
	free      []Frame
	allocated int
}

// New creates a physical memory of nframes page frames.
func New(nframes int) *PhysMem {
	if nframes <= 0 {
		panic(fmt.Sprintf("mem: invalid frame count %d", nframes))
	}
	m := &PhysMem{frames: make([][]uint32, nframes)}
	// Hand out low frames first for reproducible layouts.
	for f := nframes - 1; f >= 0; f-- {
		m.free = append(m.free, Frame(f))
	}
	return m
}

// Digest returns an FNV-1a hash over the allocation state and the contents
// of every allocated frame, in frame order. Snapshots carry this instead
// of the frames themselves (a full machine is tens of megabytes); two
// memories with equal digests hold the same page tables, PTE flag bits,
// and workload data. Unallocated frames hash as absent, so an alloc/free
// cycle that zeroes a frame still changes the free-list component.
func (m *PhysMem) Digest() string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= prime64
		}
	}
	word(uint32(len(m.frames)))
	word(uint32(m.allocated))
	for _, f := range m.free {
		word(uint32(f))
	}
	for i, fr := range m.frames {
		if fr == nil {
			continue
		}
		word(uint32(i))
		for _, v := range fr {
			word(v)
		}
	}
	return fmt.Sprintf("%016x", h)
}

// TotalFrames returns the configured physical memory size in frames.
func (m *PhysMem) TotalFrames() int { return len(m.frames) }

// FreeFrames returns the number of unallocated frames.
func (m *PhysMem) FreeFrames() int { return len(m.free) }

// AllocatedFrames returns the number of frames currently allocated.
func (m *PhysMem) AllocatedFrames() int { return m.allocated }

// AllocFrame allocates one zeroed frame.
func (m *PhysMem) AllocFrame() (Frame, error) {
	if len(m.free) == 0 {
		return 0, fmt.Errorf("mem: out of physical memory (%d frames in use)", m.allocated)
	}
	f := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.frames[f] = make([]uint32, WordsPerPage)
	m.allocated++
	return f, nil
}

// FreeFrame returns a frame to the free pool. Freeing an unallocated frame
// panics: it indicates a kernel bug, which the simulation should expose
// loudly rather than absorb.
func (m *PhysMem) FreeFrame(f Frame) {
	if int(f) >= len(m.frames) || m.frames[f] == nil {
		panic(fmt.Sprintf("mem: free of unallocated frame %d", f))
	}
	m.frames[f] = nil
	m.free = append(m.free, f)
	m.allocated--
}

// FrameAllocated reports whether f is currently allocated. DMA paths use
// it to turn a transfer into a decodable bus error instead of the
// use-after-free panic a CPU access deserves: a device streaming through a
// stale (but shootdown-covered) translation is a modeled hazard, not a
// simulator bug.
func (m *PhysMem) FrameAllocated(f Frame) bool {
	return int(f) < len(m.frames) && m.frames[f] != nil
}

func (m *PhysMem) frameFor(pa PAddr, op string) []uint32 {
	f := FrameOf(pa)
	if int(f) >= len(m.frames) || m.frames[f] == nil {
		panic(fmt.Sprintf("mem: %s of unallocated physical address %#x (frame %d)", op, pa, f))
	}
	return m.frames[f]
}

// ReadWord reads the 32-bit word at pa, which must be word-aligned and
// within an allocated frame.
func (m *PhysMem) ReadWord(pa PAddr) uint32 {
	if pa%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned read at %#x", pa))
	}
	return m.frameFor(pa, "read")[(pa&PageMask)/WordSize]
}

// WriteWord writes the 32-bit word at pa.
func (m *PhysMem) WriteWord(pa PAddr, v uint32) {
	if pa%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned write at %#x", pa))
	}
	m.frameFor(pa, "write")[(pa&PageMask)/WordSize] = v
}

// CopyFrame copies the contents of frame src into frame dst
// (used for copy-on-write page copies).
func (m *PhysMem) CopyFrame(dst, src Frame) {
	d := m.frameFor(PAddr(dst)<<PageShift, "copy-dst")
	s := m.frameFor(PAddr(src)<<PageShift, "copy-src")
	copy(d, s)
}

// ZeroFrame clears every word of the frame.
func (m *PhysMem) ZeroFrame(f Frame) {
	d := m.frameFor(PAddr(f)<<PageShift, "zero")
	for i := range d {
		d[i] = 0
	}
}
