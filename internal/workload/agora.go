package workload

import (
	"fmt"
	"math/rand"

	"shootdown/internal/kernel"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
)

// RunAgora simulates the Agora double-ended wavefront shortest-path search:
// 15-way parallel workers communicating through shared write-once memory.
//
// All of Agora's large shootdowns happen during its setup phase, while
// every worker is busy initializing: the kernel allocates, fills, and
// releases the buffers that build the shared write-once regions, and each
// release shoots down the kernel pmap across all ~15 active processors.
// Once set up, the search runs "again and again" without large shootdowns;
// the few remaining events occur between rounds, when most processors are
// idle, and involve only 1-4 processors — the bimodal distribution that
// makes Table 2's medians "not meaningful" for Agora.
func RunAgora(cfg AppConfig) (AppResult, error) {
	return run(cfg, rigAgora, appResult("Agora"))
}

// rigAgora spawns the search's main thread, which publishes the shared
// region and runs the worker rounds.
func rigAgora(k *kernel.Kernel, cfg AppConfig) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 3))

	workers := cfg.NCPUs - 1
	if workers > 15 {
		workers = 15
	}
	const rounds = 5
	task, err := k.NewTask("agora")
	if err != nil {
		return err
	}
	task.Spawn("agora", func(main *kernel.Thread) {
		shared, err := main.VMAllocate(uint32(64 * mem.PageSize))
		check(err, "agora: shared region")

		// Round 1 workers start immediately and spend the setup phase in
		// their own initialization, keeping every processor busy.
		run := func(round int) []*kernel.Thread {
			var ths []*kernel.Thread
			for w := 0; w < workers; w++ {
				w := w
				ths = append(ths, task.Spawn(fmt.Sprintf("r%dw%d", round, w), func(th *kernel.Thread) {
					// Parse/init work before the search proper.
					th.Compute(jitterDur(rng, 30_000_000, 40_000_000))
					agoraSearch(th, shared, w, rng)
				}))
			}
			return ths
		}

		ths := run(0)
		// Setup: build the shared write-once regions through kernel
		// buffers while all workers run — the machine-wide shootdowns.
		for i := 0; i < scaled(cfg, 18); i++ {
			kernelBufferCycle(main, rng, 1.0, jitterDur(rng, 500_000, 2_000_000))
			// Publish a slice of the shared region (write-once).
			check(main.Write(shared+ptable.VAddr(i*mem.PageSize), uint32(i+1)), "agora: publish")
			main.Compute(jitterDur(rng, 2_000_000, 4_000_000))
		}
		for _, th := range ths {
			main.Join(th)
		}
		// Remaining rounds: the search re-runs with no large shootdowns;
		// between rounds (workers gone, processors idle) the kernel does
		// a little result-collection buffer work involving 1-4 CPUs.
		for round := 1; round < rounds; round++ {
			for i := 0; i < 4; i++ {
				kernelBufferCycle(main, rng, 1.0, jitterDur(rng, 300_000, 1_000_000))
			}
			ths := run(round)
			for _, th := range ths {
				main.Join(th)
			}
		}
	})
	return nil
}

// agoraSearch reads the shared write-once wavefront data and computes; it
// never writes shared memory, so the search phase causes no shootdowns.
func agoraSearch(th *kernel.Thread, shared ptable.VAddr, w int, rng *rand.Rand) {
	for step := 0; step < 6; step++ {
		for i := 0; i < 8; i++ {
			if _, err := th.Read(shared + ptable.VAddr(((w+i*3)%64)*mem.PageSize)); err != nil {
				th.Fail(err)
				return
			}
		}
		th.Compute(jitterDur(rng, 10_000_000, 20_000_000))
	}
}
