package workload

import (
	"fmt"
	"math/rand"

	"shootdown/internal/kernel"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
)

// RunMachBuild simulates the "Mach kernel build" evaluation application:
// a parallel make that uses multiple processors only for throughput —
// compile jobs in separate tasks with no user-level memory sharing, but
// heavy in-kernel activity: every job cycles kernel buffers (I/O, exec
// images) through the kernel map, and freeing those buffers reduces
// permissions in the kernel pmap, which is in use on every processor.
//
// Roughly half the kernel buffers are never actually touched before being
// freed; those deallocations are exactly what lazy evaluation elides, so
// disabling it about doubles the kernel shootdown count (Table 1's 8091
// vs 3827).
func RunMachBuild(cfg AppConfig) (AppResult, error) {
	return run(cfg, rigMachBuild, appResult("Mach"))
}

// rigMachBuild spawns the build's make workers over asynchronous device
// load.
func rigMachBuild(k *kernel.Kernel, cfg AppConfig) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	installDeviceLoad(k, cfg.Seed, 3_000_000)
	jobs := scaled(cfg, 40)
	workers := cfg.NCPUs - 2
	if workers > 14 {
		workers = 14
	}
	if workers < 1 {
		workers = 1
	}
	nextJob := 0
	var jobLock kernel.Mutex

	builder := k.KernelTask()
	for w := 0; w < workers; w++ {
		w := w
		builder.Spawn(fmt.Sprintf("make%d", w), func(th *kernel.Thread) {
			for {
				th.Lock(&jobLock)
				if nextJob >= jobs {
					th.Unlock(&jobLock)
					return
				}
				job := nextJob
				nextJob++
				th.Unlock(&jobLock)
				compileJob(th, job, rng)
			}
		})
	}
	return nil
}

// compileJob runs one "cc" in its own task: private memory only, with the
// kernel-side buffer churn a compiler run generates.
func compileJob(worker *kernel.Thread, job int, rng *rand.Rand) {
	k := worker.Kernel()
	task, err := k.NewTask(fmt.Sprintf("cc%d", job))
	check(err, "mach build: new task")
	jt := task.Spawn(fmt.Sprintf("cc%d", job), func(th *kernel.Thread) {
		// The compiler's private working set.
		size := uint32((4 + rng.Intn(12)) * mem.PageSize)
		va, err := th.VMAllocate(size)
		if err != nil {
			th.Fail(err)
			return
		}
		for off := uint32(0); off < size; off += mem.PageSize {
			check(th.Write(va+ptable.VAddr(off), uint32(job)), "mach build: touch")
		}
		// Compile phases: compute interleaved with kernel buffer cycles
		// (source reads, object writes).
		phases := 4 + rng.Intn(3)
		for p := 0; p < phases; p++ {
			th.Compute(jitterDur(rng, 250_000_000, 220_000_000)) // 250-470 ms
			kernelBufferCycle(th, rng, 0.48, jitterDur(rng, 300_000, 1_700_000))
		}
	})
	worker.Join(jt)
	worker.DestroyTask(task)
}

// kernelBufferCycle allocates a kernel buffer, touches it with the given
// probability, holds it across a device-masked kernel section, and frees
// it. The free is the permission reduction that may shoot down.
func kernelBufferCycle(th *kernel.Thread, rng *rand.Rand, touchProb float64, section sim.Time) {
	pages := 1 + rng.Intn(4)
	kva, err := th.KernelAllocate(uint32(pages * mem.PageSize))
	check(err, "kernel buffer alloc")
	if rng.Float64() < touchProb {
		for p := 0; p < pages; p++ {
			check(th.Write(kva+ptable.VAddr(p*mem.PageSize), 1), "kernel buffer touch")
		}
	}
	th.KernelSection(section)
	check(th.KernelDeallocate(kva, kva+ptable.VAddr(pages*mem.PageSize)), "kernel buffer free")
}
