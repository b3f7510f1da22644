package workload

import (
	"fmt"
	"math/rand"

	"shootdown/internal/kernel"
	"shootdown/internal/mem"
	"shootdown/internal/pmap"
	"shootdown/internal/ptable"
)

// RunParthenon simulates the Parthenon parallel theorem prover: worker
// threads in one task remove work from a central workpile and add new work
// as it is generated, allocating memory as needed to hold intermediate
// proof-search results.
//
// Each worker's startup runs the cthreads stack-setup sequence the paper
// highlights (Section 7.2): allocate a large aligned stack region, write
// the first page (private data), and reprotect the untouched second page
// to no access as a guard. Without lazy evaluation that reprotect causes a
// user-pmap shootdown whenever other threads are running; with it, the
// pmap module notices the guard page was never mapped and skips the
// shootdown entirely — the 70 → 0 user-event collapse of Table 1.
//
// The application is run five times in succession, as in the paper.
func RunParthenon(cfg AppConfig) (AppResult, error) {
	return run(cfg, rigParthenon, appResult("Parthenon"))
}

// rigParthenon spawns the prover, which runs the five rounds of workers.
func rigParthenon(k *kernel.Kernel, cfg AppConfig) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	const rounds = 5
	workers := cfg.NCPUs - 1
	if workers > 15 {
		workers = 15
	}
	task, err := k.NewTask("parthenon")
	if err != nil {
		return err
	}
	task.Spawn("prover", func(main *kernel.Thread) {
		for round := 0; round < rounds; round++ {
			pile := &workpile{items: scaled(cfg, 55)}
			var ths []*kernel.Thread
			for w := 0; w < workers; w++ {
				w := w
				ths = append(ths, task.Spawn(fmt.Sprintf("r%dw%d", round, w), func(th *kernel.Thread) {
					cthreadStackSetup(th, rng)
					proverLoop(th, pile, rng)
				}))
			}
			for _, th := range ths {
				main.Join(th)
			}
		}
	})
	return nil
}

// workpile is the prover's central queue of open search possibilities.
type workpile struct {
	mu     kernel.Mutex
	items  int // remaining seeded items
	budget int // extra items workers may add
}

func (p *workpile) take(th *kernel.Thread) bool {
	th.Lock(&p.mu)
	defer th.Unlock(&p.mu)
	if p.items == 0 {
		return false
	}
	p.items--
	return true
}

func (p *workpile) add(th *kernel.Thread, n int) {
	th.Lock(&p.mu)
	defer th.Unlock(&p.mu)
	p.items += n
}

// cthreadStackSetup reproduces the cthreads library's thread-start code:
// a big aligned stack region, the first page reserved (and written) for
// private data, and the untouched second page reprotected to detect stack
// overflows. The reprotect of the never-accessed guard page is the
// shootdown that lazy evaluation eliminates — "removing an average
// four-fifths of a millisecond from the startup time for new threads".
func cthreadStackSetup(th *kernel.Thread, rng *rand.Rand) {
	stack, err := th.VMAllocate(16 * mem.PageSize)
	check(err, "parthenon: stack alloc")
	check(th.Write(stack, uint32(th.CPU())), "parthenon: private data page")
	guard := stack + mem.PageSize
	check(th.VMProtect(guard, guard+mem.PageSize, pmap.ProtNone), "parthenon: guard reprotect")
	// Occasional kernel-side thread bookkeeping; buffers almost never
	// touched (Table 1's 107 → 4 kernel events).
	kernelBufferCycle(th, rng, 0.05, jitterDur(rng, 100_000, 300_000))
}

// proverLoop is the worker body: take a possibility, search it, sometimes
// allocate memory for intermediate results and generate more work.
func proverLoop(th *kernel.Thread, pile *workpile, rng *rand.Rand) {
	for pile.take(th) {
		th.Compute(jitterDur(rng, 20_000_000, 40_000_000)) // 20-60 ms of inference
		if rng.Intn(3) == 0 {
			// Hold intermediate results.
			va, err := th.VMAllocate(uint32((1 + rng.Intn(4)) * mem.PageSize))
			check(err, "parthenon: result alloc")
			check(th.Write(va+ptable.VAddr(rng.Intn(4)*mem.WordSize), 1), "parthenon: result write")
		}
		th.Lock(&pile.mu)
		if pile.budget < 40 && rng.Intn(4) == 0 {
			pile.items++
			pile.budget++
		}
		th.Unlock(&pile.mu)
	}
}
