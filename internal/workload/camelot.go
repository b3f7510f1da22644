package workload

import (
	"fmt"
	"math/rand"

	"shootdown/internal/kernel"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
)

// RunCamelot simulates the Camelot distributed transaction facility: a
// multi-threaded data server making aggressive use of memory sharing and
// copy-on-write to implement database access and transaction semantics.
// Transactions arrive from clients at a steady rate, so only a few of the
// eight server threads are busy at any instant.
//
// Camelot is the only evaluation application that causes user-pmap
// shootdowns (Table 3). Two mechanisms produce them here, as in Mach:
//
//   - Periodic recovery snapshots fork the server's address space; the
//     fork write-protects the live database segment (hundreds of pages)
//     under the running server threads.
//   - Every subsequent write to a protected page breaks copy-on-write,
//     and installing the private copy replaces a live mapping — a
//     one-page shootdown.
//
// That mix is why Table 3's page counts span 1 to the whole segment.
// Commits also cycle kernel log buffers, giving Camelot its steady trickle
// of kernel-pmap shootdowns (Table 2).
func RunCamelot(cfg AppConfig) (AppResult, error) {
	return run(cfg, rigCamelot, appResult("Camelot"))
}

// rigCamelot spawns the data server over asynchronous device load.
func rigCamelot(k *kernel.Kernel, cfg AppConfig) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	installDeviceLoad(k, cfg.Seed, 5_000_000)

	servers := 8
	if servers > cfg.NCPUs-2 {
		servers = cfg.NCPUs - 2
	}
	if servers < 1 {
		servers = 1
	}
	const segmentPages = 360
	requests := scaled(cfg, 110)
	task, err := k.NewTask("camelot")
	if err != nil {
		return err
	}
	task.Spawn("dataserver", func(main *kernel.Thread) {
		segment, err := main.VMAllocate(uint32(segmentPages * mem.PageSize))
		check(err, "camelot: segment alloc")
		// Warm the whole recoverable segment.
		for p := 0; p < segmentPages; p++ {
			check(main.Write(segment+ptable.VAddr(p*mem.PageSize), uint32(p)), "camelot: warm")
		}

		var reqs kernel.Semaphore
		var mu kernel.Mutex
		work := requests

		var ths []*kernel.Thread
		for s := 0; s < servers; s++ {
			s := s
			ths = append(ths, task.Spawn(fmt.Sprintf("server%d", s), func(th *kernel.Thread) {
				for {
					th.P(&reqs)
					th.Lock(&mu)
					if work == 0 {
						th.Unlock(&mu)
						return // poison pill: all transactions done
					}
					work--
					th.Unlock(&mu)
					transaction(th, segment, segmentPages, rng)
				}
			}))
		}
		// Client load: transactions arrive at a steady rate.
		clients := task.Spawn("clients", func(th *kernel.Thread) {
			for i := 0; i < requests; i++ {
				th.Compute(jitterDur(rng, 40_000_000, 60_000_000))
				th.V(&reqs)
			}
			for range ths {
				th.V(&reqs) // poison pills
			}
		})
		// Recovery thread: periodic copy-on-write snapshots of the
		// address space while the servers run.
		snaps := scaled(cfg, 4)
		for i := 0; i < snaps; i++ {
			main.Compute(jitterDur(rng, 1_100_000_000, 600_000_000))
			snap, err := main.ForkTask(fmt.Sprintf("snapshot%d", i))
			check(err, "camelot: snapshot fork")
			// "Write the snapshot to the log", then drop it.
			main.KernelSection(jitterDur(rng, 2_000_000, 4_000_000))
			main.DestroyTask(snap)
		}
		main.Join(clients)
		for _, th := range ths {
			main.Join(th)
		}
	})
	return nil
}

// transaction updates a couple of database pages (breaking copy-on-write
// if a snapshot protected them) and commits through a kernel log buffer.
func transaction(th *kernel.Thread, segment ptable.VAddr, segmentPages int, rng *rand.Rand) {
	touches := 1 + rng.Intn(2)
	for i := 0; i < touches; i++ {
		// Database access skew: most transactions hit a small hot set.
		page := rng.Intn(8)
		if rng.Float64() > 0.8 {
			page = rng.Intn(segmentPages)
		}
		va := segment + ptable.VAddr(page*mem.PageSize+rng.Intn(64)*mem.WordSize)
		v, err := th.Read(va)
		if err != nil {
			th.Fail(err)
			return
		}
		if err := th.Write(va, v+1); err != nil {
			th.Fail(err)
			return
		}
	}
	th.Compute(jitterDur(rng, 70_000_000, 80_000_000)) // transaction logic
	kernelBufferCycle(th, rng, 0.5, jitterDur(rng, 300_000, 1_200_000))
}
