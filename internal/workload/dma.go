package workload

import (
	"fmt"
	"math/rand"

	"shootdown/internal/kernel"
	"shootdown/internal/mem"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
)

// RunDMA is the device chaos-campaign workload: each device streams DMA
// through a fixed virtual buffer in its own task while a controller thread
// repeatedly unmaps and remaps pieces of that buffer underneath it — the
// unmap-under-DMA race. Every unmap is a permission reduction in a pmap
// with an attached device, so every one runs the heterogeneous barrier:
// CPU responders ack by IPI, the device acks by completion message, and
// injected device faults (stalls, dropped doorbells, wedges) push the
// initiator down the device watchdog ladder, ending in quarantine when
// the device never answers.
//
// Like RunChurn it is fail-stop tolerant by construction: no blocking
// primitives, bounded iterations, DMA faults (expected after an unmap or
// a quarantine) are counted, never retried unboundedly.
func RunDMA(cfg AppConfig) (AppResult, error) {
	return run(dmaConfig(cfg), rigDMA, appResult("DMA"))
}

// dmaStream is the shared control block between one device's controller
// thread and its DMA proc. The discrete-event engine serializes access.
type dmaStream struct {
	buf  ptable.VAddr // buffer base (fixed for the whole run)
	size uint32
	live bool // controller is still churning mappings
}

// StartDMA assembles the DMA kernel and spawns its streams without
// running the engine, for callers that pause and snapshot the world
// (step-bounded replay, shrink candidates); drive it with RunTo and Run.
// At least one device is always configured.
func StartDMA(cfg AppConfig) (*kernel.Kernel, error) { return start(dmaConfig(cfg), rigDMA) }

// dmaConfig gives the DMA workload its one default device.
func dmaConfig(cfg AppConfig) AppConfig {
	if cfg.NumDevices == 0 {
		cfg.NumDevices = 1
	}
	return cfg
}

// rigDMA spawns one controller thread and one DMA engine per device, plus
// background churn.
func rigDMA(k *kernel.Kernel, cfg AppConfig) error {
	const pages = 8
	iters := scaled(cfg, 16)
	for d := 0; d < k.M.NumDevices(); d++ {
		d := d
		task, err := k.NewTask(fmt.Sprintf("dma%d", d))
		if err != nil {
			return err
		}
		k.AttachDevice(d, task)
		st := &dmaStream{size: pages * mem.PageSize, live: true}
		rng := rand.New(rand.NewSource(cfg.Seed + 31_337 + int64(d)*7919))
		task.Spawn(fmt.Sprintf("dmactl%d", d), func(th *kernel.Thread) {
			dmaController(th, st, rng, iters)
		})
		startDMAEngine(k, d, st, cfg.Seed+62_143+int64(d)*104_729)
	}
	// Background churn keeps unrelated shootdown traffic flowing so
	// device completions interleave with ordinary CPU barriers.
	for w := 0; w < 2; w++ {
		rng := rand.New(rand.NewSource(cfg.Seed + 991 + int64(w)*7919))
		task, err := k.NewTask(fmt.Sprintf("dmachurn%d", w))
		if err != nil {
			return err
		}
		task.Spawn(fmt.Sprintf("dmachurn%d", w), func(th *kernel.Thread) {
			churnUser(th, rng, scaled(cfg, 8))
		})
	}
	return nil
}

// dmaController owns one device's buffer: it maps it, lets the device
// stream against it, then repeatedly unmaps a random sub-range (shooting
// down the device TLB) and remaps it at the same address so the stream
// keeps finding fresh mappings.
func dmaController(th *kernel.Thread, st *dmaStream, rng *rand.Rand, iters int) {
	defer func() { st.live = false }()
	va, err := th.VMAllocate(st.size)
	if err != nil {
		th.Fail(err)
		return
	}
	pages := int(st.size) / mem.PageSize
	for p := 0; p < pages; p++ {
		if err := th.Write(va+ptable.VAddr(p*mem.PageSize), uint32(p)); err != nil {
			th.Fail(err)
			return
		}
	}
	st.buf = va // publish: the DMA engine starts streaming
	for i := 0; i < iters; i++ {
		th.Compute(jitterDur(rng, 200_000, 400_000))
		// Unmap 1-3 pages mid-buffer while DMA is (possibly) in flight.
		first := rng.Intn(pages)
		n := 1 + rng.Intn(3)
		if first+n > pages {
			n = pages - first
		}
		lo := va + ptable.VAddr(first*mem.PageSize)
		hi := lo + ptable.VAddr(n*mem.PageSize)
		if err := th.VMDeallocate(lo, hi); err != nil {
			th.Fail(err)
			return
		}
		th.Compute(jitterDur(rng, 100_000, 200_000))
		// Remap the hole at the same address and re-touch it.
		if _, err := th.VMAllocateAt(lo, uint32(n*mem.PageSize)); err != nil {
			th.Fail(err)
			return
		}
		for p := 0; p < n; p++ {
			if err := th.Write(lo+ptable.VAddr(p*mem.PageSize), uint32(i)); err != nil {
				th.Fail(err)
				return
			}
		}
	}
}

// startDMAEngine spawns the device's transfer engine as a raw sim proc —
// it is hardware, not a schedulable thread. It streams reads and writes
// at random offsets in the published buffer until the controller stops.
// Transfer faults are expected hardware events here: an unmapped page
// mid-churn, or every access after a quarantine.
func startDMAEngine(k *kernel.Kernel, devID int, st *dmaStream, seed int64) {
	dev := k.M.Device(devID)
	rng := rand.New(rand.NewSource(seed))
	k.Eng.Spawn(fmt.Sprintf("dma-engine%d", devID), func(p *sim.Proc) {
		for st.live || st.buf == 0 {
			if st.buf == 0 { // not yet published
				if !st.live && st.buf == 0 {
					return // controller failed before mapping
				}
				p.Sleep(100_000)
				continue
			}
			va := st.buf + ptable.VAddr(rng.Intn(int(st.size))&^(mem.WordSize-1))
			if rng.Intn(4) == 0 {
				dev.DMAWrite(p, va.Page(), uint32(va))
			} else {
				dev.DMARead(p, va.Page())
			}
			p.Sleep(sim.Time(20_000 + rng.Intn(60_000)))
		}
	})
}
