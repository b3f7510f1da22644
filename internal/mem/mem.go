// Package mem implements the simulated physical memory of the machine:
// a fixed-size pool of 4 KB page frames, word (32-bit) addressed. The
// frame allocator reuses the most recently freed frame, else hands out
// the lowest never-used one, for reproducible layouts. Memory costs the
// host only the frames a world has touched: building a PhysMem is O(1)
// whatever its configured size, and the frame table grows to the highest
// frame handed out so far.
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
//
// The free pool is the recycled stack plus the never-used range
// [len(frames), total). AllocFrame pops the stack first and otherwise
// takes the lowest never-used frame, so frames are handed out exactly as
// by an eager list [total-1 … 0] that FreeFrame appends to and AllocFrame
// pops from the end.
type PhysMem struct {
	frames   []*[WordsPerPage]uint32 // frames below the high-water mark; nil = free
	recycled []Frame                 // freed frames, last freed reused first
	// spare keeps the storage of freed frames for AllocFrame to zero and
	// reuse, so recycling a frame costs no host allocation. It is host
	// storage only: which array backs a frame is invisible to the
	// simulation, and Digest does not read it.
	spare     []*[WordsPerPage]uint32
	total     int // configured size in frames
	allocated int
}

// New creates a physical memory of nframes page frames. It allocates no
// frame storage: frames cost host memory only once handed out.
func New(nframes int) *PhysMem {
	if nframes <= 0 {
		panic(fmt.Sprintf("mem: invalid frame count %d", nframes))
	}
	return &PhysMem{total: nframes}
}

// Digest returns an FNV-1a hash over the allocation state and the contents
// of every allocated frame, in frame order. Snapshots carry this instead
// of the frames themselves; two memories with equal digests hold the same
// page tables, PTE flag bits, and workload data. Unallocated frames hash
// as absent, so an alloc/free cycle that zeroes a frame still changes the
// free-pool component. The free pool hashes in eager-list order (never-used
// frames from the top down, then the recycled stack), so the digest does
// not depend on how much of the frame table has been materialised.
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
	word(uint32(m.total))
	word(uint32(m.allocated))
	for f := m.total - 1; f >= len(m.frames); f-- {
		word(uint32(f))
	}
	for _, f := range m.recycled {
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
func (m *PhysMem) TotalFrames() int { return m.total }

// FreeFrames returns the number of unallocated frames.
func (m *PhysMem) FreeFrames() int { return len(m.recycled) + m.total - len(m.frames) }

// AllocatedFrames returns the number of frames currently allocated.
func (m *PhysMem) AllocatedFrames() int { return m.allocated }

// AllocFrame allocates one zeroed frame. Its storage is a freed frame's,
// cleared, when one is spare, else a fresh array.
func (m *PhysMem) AllocFrame() (Frame, error) {
	var f Frame
	switch {
	case len(m.recycled) > 0:
		f = m.recycled[len(m.recycled)-1]
		m.recycled = m.recycled[:len(m.recycled)-1]
	case len(m.frames) < m.total:
		f = Frame(len(m.frames))
		m.frames = append(m.frames, nil)
	default:
		return 0, fmt.Errorf("mem: out of physical memory (%d frames in use)", m.allocated)
	}
	if n := len(m.spare); n > 0 {
		m.frames[f] = m.spare[n-1]
		m.spare = m.spare[:n-1]
		clear(m.frames[f][:])
	} else {
		m.frames[f] = new([WordsPerPage]uint32)
	}
	m.allocated++
	return f, nil
}

// FreeFrame returns a frame to the free pool. Freeing an unallocated frame
// panics: it indicates a kernel bug, which the simulation should expose
// loudly rather than absorb.
func (m *PhysMem) FreeFrame(f Frame) {
	if !m.FrameAllocated(f) {
		panic(fmt.Sprintf("mem: free of unallocated frame %d", f))
	}
	m.spare = append(m.spare, m.frames[f])
	m.frames[f] = nil
	m.recycled = append(m.recycled, f)
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

func (m *PhysMem) frameFor(pa PAddr, op string) *[WordsPerPage]uint32 {
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
	return m.frameFor(pa, "read")[pa/WordSize%WordsPerPage]
}

// WriteWord writes the 32-bit word at pa.
func (m *PhysMem) WriteWord(pa PAddr, v uint32) {
	if pa%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned write at %#x", pa))
	}
	m.frameFor(pa, "write")[pa/WordSize%WordsPerPage] = v
}

// CopyFrame copies the contents of frame src into frame dst
// (used for copy-on-write page copies).
func (m *PhysMem) CopyFrame(dst, src Frame) {
	d := m.frameFor(PAddr(dst)<<PageShift, "copy-dst")
	s := m.frameFor(PAddr(src)<<PageShift, "copy-src")
	*d = *s
}
