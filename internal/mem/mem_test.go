package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAllocFreeCycle(t *testing.T) {
	m := New(4)
	if m.TotalFrames() != 4 || m.FreeFrames() != 4 || m.AllocatedFrames() != 0 {
		t.Fatalf("fresh memory counters wrong: %d/%d/%d", m.TotalFrames(), m.FreeFrames(), m.AllocatedFrames())
	}
	var frames []Frame
	for i := 0; i < 4; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := m.AllocFrame(); err == nil {
		t.Fatal("want out-of-memory error")
	}
	for _, f := range frames {
		m.FreeFrame(f)
	}
	if m.FreeFrames() != 4 {
		t.Fatalf("FreeFrames = %d after freeing all", m.FreeFrames())
	}
}

func TestLowFramesFirst(t *testing.T) {
	m := New(8)
	f0, _ := m.AllocFrame()
	f1, _ := m.AllocFrame()
	if f0 != 0 || f1 != 1 {
		t.Fatalf("frames = %d,%d; want 0,1 (low frames first for reproducible layouts)", f0, f1)
	}
}

func TestReadWriteWord(t *testing.T) {
	m := New(2)
	f, _ := m.AllocFrame()
	pa := f.Addr(128)
	m.WriteWord(pa, 0xDEADBEEF)
	if got := m.ReadWord(pa); got != 0xDEADBEEF {
		t.Fatalf("ReadWord = %#x", got)
	}
	// Fresh frames are zeroed.
	if got := m.ReadWord(f.Addr(0)); got != 0 {
		t.Fatalf("fresh frame word = %#x, want 0", got)
	}
}

func TestFrameReuseIsZeroed(t *testing.T) {
	m := New(1)
	f, _ := m.AllocFrame()
	m.WriteWord(f.Addr(0), 42)
	m.FreeFrame(f)
	f2, _ := m.AllocFrame()
	if f2 != f {
		t.Fatalf("expected frame reuse, got %d then %d", f, f2)
	}
	if got := m.ReadWord(f2.Addr(0)); got != 0 {
		t.Fatalf("reused frame not zeroed: %#x", got)
	}
}

// TestRecycledFrameAllocatesNothing pins AllocFrame's reuse of freed
// frame storage: once a frame has been freed, an alloc/write/free cycle
// makes no host allocation, and the reused frame reads as zero.
func TestRecycledFrameAllocatesNothing(t *testing.T) {
	m := New(4)
	f, _ := m.AllocFrame()
	m.FreeFrame(f)
	dirty := 0
	allocs := testing.AllocsPerRun(100, func() {
		f, err := m.AllocFrame()
		if err != nil {
			panic(err)
		}
		for off := uint32(0); off < PageSize; off += 1024 {
			if m.ReadWord(f.Addr(off)) != 0 {
				dirty++
			}
			m.WriteWord(f.Addr(off), 0xdeadbeef)
		}
		m.FreeFrame(f)
	})
	if allocs != 0 {
		t.Fatalf("alloc/free cycle with a spare frame made %v allocations, want 0", allocs)
	}
	if dirty != 0 {
		t.Fatalf("a reused frame read %d nonzero words, want all zero", dirty)
	}
}

func TestCopyFrame(t *testing.T) {
	m := New(2)
	a, _ := m.AllocFrame()
	b, _ := m.AllocFrame()
	for i := uint32(0); i < WordsPerPage; i++ {
		m.WriteWord(a.Addr(i*WordSize), i*3)
	}
	m.CopyFrame(b, a)
	for i := uint32(0); i < WordsPerPage; i += 97 {
		if got := m.ReadWord(b.Addr(i * WordSize)); got != i*3 {
			t.Fatalf("copied word %d = %d, want %d", i, got, i*3)
		}
	}
}

func TestPanics(t *testing.T) {
	m := New(1)
	f, _ := m.AllocFrame()
	cases := map[string]func(){
		"unaligned read":  func() { m.ReadWord(f.Addr(2)) },
		"unaligned write": func() { m.WriteWord(f.Addr(1), 0) },
		"read unalloc":    func() { m.ReadWord(Frame(0).Addr(0) + PageSize*100) },
		"double free": func() {
			m.FreeFrame(f)
			m.FreeFrame(f)
		},
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := cases[name]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAddrHelpers(t *testing.T) {
	f := Frame(3)
	if got := f.Addr(8); got != PAddr(3*PageSize+8) {
		t.Fatalf("Addr = %#x", got)
	}
	if got := FrameOf(PAddr(3*PageSize + 8)); got != 3 {
		t.Fatalf("FrameOf = %d", got)
	}
	// Offset is masked into the page.
	if got := f.Addr(PageSize + 4); got != PAddr(3*PageSize+4) {
		t.Fatalf("Addr with overflowing offset = %#x", got)
	}
}

// Property: words written are read back exactly, independent of order.
func TestQuickReadBack(t *testing.T) {
	m := New(8)
	var frames []Frame
	for i := 0; i < 8; i++ {
		f, _ := m.AllocFrame()
		frames = append(frames, f)
	}
	model := map[PAddr]uint32{}
	f := func(frameIdx uint8, wordIdx uint16, v uint32) bool {
		fr := frames[int(frameIdx)%len(frames)]
		pa := fr.Addr(uint32(wordIdx%WordsPerPage) * WordSize)
		m.WriteWord(pa, v)
		model[pa] = v
		//lint:allow simdeterminism pure read-back check; no effect depends on visit order
		for a, want := range model {
			if m.ReadWord(a) != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// eagerMem is the reference allocator PhysMem must match: a frame table
// of every configured frame and an eager free list [n-1 … 0] that frees
// append to and allocations pop from the end.
type eagerMem struct {
	frames    [][]uint32
	free      []Frame
	allocated int
}

func newEager(n int) *eagerMem {
	e := &eagerMem{frames: make([][]uint32, n)}
	for f := n - 1; f >= 0; f-- {
		e.free = append(e.free, Frame(f))
	}
	return e
}

func (e *eagerMem) alloc() (Frame, error) {
	if len(e.free) == 0 {
		return 0, fmt.Errorf("mem: out of physical memory (%d frames in use)", e.allocated)
	}
	f := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.frames[f] = make([]uint32, WordsPerPage)
	e.allocated++
	return f, nil
}

func (e *eagerMem) release(f Frame) {
	e.frames[f] = nil
	e.free = append(e.free, f)
	e.allocated--
}

func (e *eagerMem) digest() string {
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
	word(uint32(len(e.frames)))
	word(uint32(e.allocated))
	for _, f := range e.free {
		word(uint32(f))
	}
	for i, fr := range e.frames {
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

// TestMatchesEagerFreeList runs random alloc/free/write mixes to
// exhaustion and back against the eager reference, comparing the frame
// handed out, the exhaustion error, the counters and the digest after
// every operation.
func TestMatchesEagerFreeList(t *testing.T) {
	// The digest hashes every allocated word, so the large size gets
	// fewer seeds to keep the test fast.
	for _, c := range []struct{ n, seeds int }{{1, 20}, {4, 20}, {64, 2}} {
		n := c.n
		for seed := int64(1); seed <= int64(c.seeds); seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, ref := New(n), newEager(n)
			var live []Frame
			check := func(op string) {
				t.Helper()
				if m.FreeFrames() != len(ref.free) || m.AllocatedFrames() != ref.allocated || m.TotalFrames() != n {
					t.Fatalf("n=%d seed=%d after %s: free/alloc/total %d/%d/%d, want %d/%d/%d", n, seed, op,
						m.FreeFrames(), m.AllocatedFrames(), m.TotalFrames(), len(ref.free), ref.allocated, n)
				}
				if got, want := m.Digest(), ref.digest(); got != want {
					t.Fatalf("n=%d seed=%d after %s: digest %s, want %s", n, seed, op, got, want)
				}
			}
			check("New")
			// Each phase leans toward allocation until the pool is
			// exhausted, then toward freeing, so both the never-used
			// range and the recycled stack are exercised in every order.
			for phase := 0; phase < 6; phase++ {
				allocBias := 0.8
				if phase%2 == 1 {
					allocBias = 0.2
				}
				for step := 0; step < 3*n+8; step++ {
					if len(live) == 0 || rng.Float64() < allocBias {
						f, err := m.AllocFrame()
						rf, rerr := ref.alloc()
						if fmt.Sprint(err) != fmt.Sprint(rerr) || (err == nil && f != rf) {
							t.Fatalf("n=%d seed=%d: alloc = %d, %v; want %d, %v", n, seed, f, err, rf, rerr)
						}
						if err == nil {
							live = append(live, f)
							v := rng.Uint32()
							w := uint32(rng.Intn(WordsPerPage))
							m.WriteWord(f.Addr(w*WordSize), v)
							ref.frames[f][w] = v
						}
						check("alloc")
						continue
					}
					i := rng.Intn(len(live))
					f := live[i]
					live = append(live[:i], live[i+1:]...)
					m.FreeFrame(f)
					ref.release(f)
					check("free")
				}
			}
		}
	}
}

// TestNewIsConstantCost: building a memory allocates its header and
// nothing proportional to its configured size.
func TestNewIsConstantCost(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { New(1 << 20) }); n > 1 {
		t.Fatalf("New(1<<20) made %v allocations, want at most 1", n)
	}
}
