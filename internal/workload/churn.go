package workload

import (
	"fmt"
	"math/rand"

	"shootdown/internal/kernel"
	"shootdown/internal/mem"
	"shootdown/internal/pmap"
	"shootdown/internal/ptable"
)

// RunChurn is the chaos-campaign workload: continuous mapping churn in
// both user and kernel pmaps, shaped so that fail-stop and hot-plug can
// strike at any point without wedging the run.
//
// Unlike the evaluation applications it is written to be *fail-stop
// tolerant by construction*:
//
//   - no kernel mutexes or semaphores — a thread that dies with its CPU
//     can never strand a waiter (spin locks it held are broken by the
//     machine layer; blocking primitives have no such recovery);
//   - no joins except implicitly via kernel.Run's live-thread count, and
//     the lifecycle driver settles that count for reaped threads;
//   - every iteration is bounded and every vm error makes the thread
//     fail out rather than retry, so the run always terminates.
//
// Each worker draws from its own RNG stream, so one worker dying early
// does not reshuffle the others' behaviour — which keeps the schedule
// monotonic enough for delta-debugging to converge quickly.
func RunChurn(cfg AppConfig) (AppResult, error) {
	return run(cfg, rigChurn, appResult("Churn"))
}

// StartChurn assembles the churn kernel and spawns its workers without
// running the engine. The snapshot/restore consumers (step-bounded replay,
// shrink candidates) drive the returned kernel themselves via RunTo and
// Run and then harvest with CollectChurn.
func StartChurn(cfg AppConfig) (*kernel.Kernel, error) { return start(cfg, rigChurn) }

// CollectChurn observes and harvests a settled churn run (the StartChurn
// counterpart of RunChurn's result).
func CollectChurn(cfg AppConfig, k *kernel.Kernel) AppResult {
	return collect(cfg, k, appResult("Churn"))
}

// rigChurn spawns the churn workers: every third one churns the kernel
// map, the rest churn a private task's map.
func rigChurn(k *kernel.Kernel, cfg AppConfig) error {
	workers := cfg.NCPUs + 2 // oversubscribe: redispatch keeps failed CPUs' work moving
	iters := scaled(cfg, 24)
	for w := 0; w < workers; w++ {
		w := w
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
		if w%3 == 2 {
			// Kernel-map churn: machine-wide shootdowns.
			k.KernelTask().Spawn(fmt.Sprintf("kchurn%d", w), func(th *kernel.Thread) {
				churnKernel(th, rng, iters)
			})
			continue
		}
		// User-map churn in a private task: targeted shootdowns.
		task, err := k.NewTask(fmt.Sprintf("churn%d", w))
		if err != nil {
			return err
		}
		task.Spawn(fmt.Sprintf("uchurn%d", w), func(th *kernel.Thread) {
			churnUser(th, rng, iters)
		})
	}
	return nil
}

// churnUser cycles a small working set through allocate / touch /
// write-protect / read / re-enable / free, the permission transitions
// that exercise every shootdown path.
func churnUser(th *kernel.Thread, rng *rand.Rand, iters int) {
	for i := 0; i < iters; i++ {
		pages := 2 + rng.Intn(4)
		size := uint32(pages * mem.PageSize)
		va, err := th.VMAllocate(size)
		if err != nil {
			th.Fail(err)
			return
		}
		end := va + ptable.VAddr(size)
		for p := 0; p < pages; p++ {
			if err := th.Write(va+ptable.VAddr(p*mem.PageSize), uint32(i)); err != nil {
				th.Fail(err)
				return
			}
		}
		th.Compute(jitterDur(rng, 150_000, 300_000))
		if err := th.VMProtect(va, end, pmap.ProtRead); err != nil {
			th.Fail(err)
			return
		}
		if _, err := th.Read(va); err != nil {
			th.Fail(err)
			return
		}
		th.Compute(jitterDur(rng, 100_000, 200_000))
		if err := th.VMDeallocate(va, end); err != nil {
			th.Fail(err)
			return
		}
	}
}

// churnKernel cycles kernel buffers; the frees reduce permissions in the
// kernel pmap, which is in use on every online processor.
func churnKernel(th *kernel.Thread, rng *rand.Rand, iters int) {
	for i := 0; i < iters; i++ {
		pages := 1 + rng.Intn(3)
		kva, err := th.KernelAllocate(uint32(pages * mem.PageSize))
		if err != nil {
			th.Fail(err)
			return
		}
		if err := th.Write(kva, uint32(i)); err != nil {
			th.Fail(err)
			return
		}
		th.Compute(jitterDur(rng, 200_000, 400_000))
		if err := th.KernelDeallocate(kva, kva+ptable.VAddr(pages*mem.PageSize)); err != nil {
			th.Fail(err)
			return
		}
	}
}
