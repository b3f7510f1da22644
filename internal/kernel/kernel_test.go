package kernel_test

import (
	"errors"
	"fmt"
	"testing"

	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/machine"
	"shootdown/internal/mem"
	"shootdown/internal/oracle"
	"shootdown/internal/pmap"
	"shootdown/internal/ptable"
	"shootdown/internal/sim"
	"shootdown/internal/snap"
	"shootdown/internal/tlb"
	"shootdown/internal/vm"
)

func testConfig(ncpu int) kernel.Config {
	costs := machine.DefaultCosts()
	costs.JitterPct = 0
	return kernel.Config{
		Machine: machine.Options{NumCPUs: ncpu, MemFrames: 2048, Costs: costs},
	}
}

func TestSingleThreadRuns(t *testing.T) {
	k, err := kernel.New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	task, err := k.NewTask("t")
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	task.Spawn("main", func(th *kernel.Thread) {
		th.Compute(1_000_000)
		ran = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("thread body never ran")
	}
	if k.Now() < 1_000_000 {
		t.Fatalf("virtual time %d too small", k.Now())
	}
}

func TestThreadMemoryRoundTrip(t *testing.T) {
	k, _ := kernel.New(testConfig(2))
	task, _ := k.NewTask("t")
	task.Spawn("main", func(th *kernel.Thread) {
		va, err := th.VMAllocate(2 * mem.PageSize)
		if err != nil {
			t.Errorf("VMAllocate: %v", err)
			return
		}
		if err := th.Write(va+4, 77); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		v, err := th.Read(va + 4)
		if err != nil || v != 77 {
			t.Errorf("Read = %d, %v", v, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelThreadsOnDistinctCPUs(t *testing.T) {
	const ncpu = 5
	k, _ := kernel.New(testConfig(ncpu))
	task, _ := k.NewTask("t")
	cpus := map[int]bool{}
	for i := 0; i < ncpu-1; i++ {
		task.Spawn(fmt.Sprintf("w%d", i), func(th *kernel.Thread) {
			th.Compute(2_000_000)
			cpus[th.CPU()] = true
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cpus) != ncpu-1 {
		t.Fatalf("threads ran on %d distinct CPUs, want %d", len(cpus), ncpu-1)
	}
	// Parallel execution: wall time well under the serial sum.
	if k.Now() > 6_000_000 {
		t.Fatalf("virtual time %d suggests serial execution", k.Now())
	}
}

func TestMoreThreadsThanCPUsTimeSlice(t *testing.T) {
	cfg := testConfig(2)
	cfg.TimerInterval = 5_000_000 // 5 ms ticks
	cfg.Quantum = 10_000_000      // 10 ms quantum
	k, _ := kernel.New(cfg)
	task, _ := k.NewTask("t")
	done := 0
	for i := 0; i < 6; i++ {
		task.Spawn(fmt.Sprintf("w%d", i), func(th *kernel.Thread) {
			th.Compute(30_000_000)
			done++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 6 {
		t.Fatalf("done = %d", done)
	}
}

func TestYieldAndJoin(t *testing.T) {
	k, _ := kernel.New(testConfig(2))
	task, _ := k.NewTask("t")
	var order []string
	var worker *kernel.Thread
	worker = task.Spawn("worker", func(th *kernel.Thread) {
		th.Compute(500_000)
		order = append(order, "worker")
	})
	task.Spawn("waiter", func(th *kernel.Thread) {
		th.Join(worker)
		order = append(order, "waiter")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "worker" || order[1] != "waiter" {
		t.Fatalf("order = %v", order)
	}
}

func TestJoinAlreadyDone(t *testing.T) {
	k, _ := kernel.New(testConfig(2))
	task, _ := k.NewTask("t")
	var fast *kernel.Thread
	fast = task.Spawn("fast", func(th *kernel.Thread) {})
	task.Spawn("slow", func(th *kernel.Thread) {
		th.Compute(5_000_000)
		th.Join(fast) // already exited; must not block
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutex(t *testing.T) {
	k, _ := kernel.New(testConfig(4))
	task, _ := k.NewTask("t")
	var mu kernel.Mutex
	inCrit, maxInCrit, count := 0, 0, 0
	for i := 0; i < 3; i++ {
		task.Spawn(fmt.Sprintf("w%d", i), func(th *kernel.Thread) {
			for j := 0; j < 5; j++ {
				th.Lock(&mu)
				inCrit++
				if inCrit > maxInCrit {
					maxInCrit = inCrit
				}
				th.Compute(200_000)
				count++
				inCrit--
				th.Unlock(&mu)
				th.Compute(50_000)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInCrit != 1 {
		t.Fatalf("mutual exclusion violated: %d concurrent holders", maxInCrit)
	}
	if count != 15 {
		t.Fatalf("count = %d", count)
	}
}

func TestTasksAreIsolated(t *testing.T) {
	k, _ := kernel.New(testConfig(2))
	a, _ := k.NewTask("a")
	b, _ := k.NewTask("b")
	var va ptable.VAddr = 0x40000
	a.Spawn("a", func(th *kernel.Thread) {
		if _, err := th.VMAllocateAt(va, mem.PageSize); err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if err := th.Write(va, 1); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	b.Spawn("b", func(th *kernel.Thread) {
		th.Compute(3_000_000) // let a's write land first
		if _, err := th.Read(va); !errors.Is(err, kernel.ErrUnrecoverableFault) {
			t.Errorf("cross-task read should fault unrecoverably, got %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestForkTaskCOW(t *testing.T) {
	k, _ := kernel.New(testConfig(3))
	parent, _ := k.NewTask("parent")
	parent.Spawn("main", func(th *kernel.Thread) {
		va, err := th.VMAllocate(mem.PageSize)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if err := th.Write(va, 111); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		child, err := th.ForkTask("child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		childDone := child.Spawn("childmain", func(cth *kernel.Thread) {
			v, err := cth.Read(va)
			if err != nil || v != 111 {
				t.Errorf("child read = %d, %v", v, err)
			}
			if err := cth.Write(va, 222); err != nil {
				t.Errorf("child write: %v", err)
			}
		})
		th.Join(childDone)
		v, err := th.Read(va)
		if err != nil || v != 111 {
			t.Errorf("parent read after child write = %d, %v; COW broken", v, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestConsistencyAcrossScheduledThreads is the §5.1 tester running on the
// full kernel: counters in shared task memory, reprotect, no increments
// after the reprotect returns.
func TestConsistencyAcrossScheduledThreads(t *testing.T) {
	const ncpu = 6
	k, _ := kernel.New(testConfig(ncpu))
	task, _ := k.NewTask("tester")
	var protectedAt sim.Time = -1
	violations := 0
	task.Spawn("main", func(th *kernel.Thread) {
		page, err := th.VMAllocate(mem.PageSize)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		for i := 0; i < ncpu-2; i++ {
			i := i
			task.Spawn(fmt.Sprintf("child%d", i), func(c *kernel.Thread) {
				va := page + ptable.VAddr(i*8)
				for n := uint32(0); ; n++ {
					if err := c.Write(va, n); err != nil {
						return // unrecoverable write fault: expected end
					}
					if protectedAt >= 0 && c.Now() > protectedAt {
						violations++
					}
					c.Compute(5_000)
				}
			})
		}
		th.Compute(2_000_000) // let children spin up and cache entries
		if err := th.VMProtect(page, page+mem.PageSize, pmap.ProtRead); err != nil {
			t.Errorf("protect: %v", err)
			return
		}
		protectedAt = th.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d writes landed after VMProtect returned", violations)
	}
	if k.Shoot.Stats().Syncs == 0 {
		t.Fatal("no shootdowns recorded")
	}
}

func TestKernelTaskShootdowns(t *testing.T) {
	const ncpu = 4
	k, _ := kernel.New(testConfig(ncpu))
	ktask := k.KernelTask()
	utask, _ := k.NewTask("u")
	// A user thread keeps other CPUs busy (and their TLBs full of kernel
	// entries is not required — kernel pmap shootdowns go machine-wide).
	for i := 0; i < 2; i++ {
		utask.Spawn(fmt.Sprintf("spin%d", i), func(th *kernel.Thread) {
			va, err := th.VMAllocate(mem.PageSize)
			if err != nil {
				return
			}
			for n := uint32(0); n < 400; n++ {
				if th.Write(va, n) != nil {
					return
				}
				th.Compute(10_000)
			}
		})
	}
	ktask.Spawn("kworker", func(th *kernel.Thread) {
		va, err := th.VMAllocate(4 * mem.PageSize)
		if err != nil {
			t.Errorf("kernel alloc: %v", err)
			return
		}
		for i := 0; i < 4; i++ {
			if err := th.Write(va+ptable.VAddr(i*mem.PageSize), 1); err != nil {
				t.Errorf("kernel write: %v", err)
				return
			}
		}
		th.Compute(500_000)
		if err := th.VMDeallocate(va, va+4*mem.PageSize); err != nil {
			t.Errorf("kernel dealloc: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	kernelTimes, _ := k.Trace.InitiatorTimes()
	if len(kernelTimes) == 0 {
		t.Fatal("no kernel-pmap shootdowns recorded")
	}
}

func TestKernelSectionDelaysShootdown(t *testing.T) {
	// A responder sitting in a long kernel critical section (device
	// interrupts masked) delays a kernel-pmap shootdown; the same run
	// with the high-priority software interrupt does not.
	run := func(highPrio bool) float64 {
		cfg := testConfig(3)
		cfg.Machine.HighPriorityIPI = highPrio
		k, _ := kernel.New(cfg)
		ktask := k.KernelTask()
		ktask.Spawn("masker", func(th *kernel.Thread) {
			// Long critical sections back to back.
			for i := 0; i < 40; i++ {
				th.KernelSection(2_000_000) // 2 ms masked
			}
		})
		ktask.Spawn("initiator", func(th *kernel.Thread) {
			va, err := th.VMAllocate(mem.PageSize)
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			if err := th.Write(va, 1); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			th.Compute(3_000_000)
			if err := th.VMDeallocate(va, va+mem.PageSize); err != nil {
				t.Errorf("dealloc: %v", err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		ks, _ := k.Trace.InitiatorTimes()
		if len(ks) == 0 {
			t.Fatal("no kernel shootdowns")
		}
		max := 0.0
		for _, v := range ks {
			if v > max {
				max = v
			}
		}
		return max
	}
	slow := run(false)
	fast := run(true)
	if slow < 500 { // µs: must show the masking delay
		t.Fatalf("masked-responder shootdown only took %.0f µs; masking not modeled?", slow)
	}
	if fast > slow/2 {
		t.Fatalf("high-priority IPI did not help: %.0f vs %.0f µs", fast, slow)
	}
}

func TestRunTwicePanics(t *testing.T) {
	k, _ := kernel.New(testConfig(1))
	task, _ := k.NewTask("t")
	task.Spawn("main", func(th *kernel.Thread) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run should panic")
		}
	}()
	_ = k.Run()
}

// TestRunToPausesOrSettles checks both outcomes of RunTo: a run still
// going at step n is paused there, unsettled, and a run that ends first is
// settled (a second Finish panics).
func TestRunToPausesOrSettles(t *testing.T) {
	build := func() *kernel.Kernel {
		k, _ := kernel.New(testConfig(2))
		task, _ := k.NewTask("t")
		task.Spawn("main", func(th *kernel.Thread) {
			for i := 0; i < 50; i++ {
				th.Compute(100_000)
			}
		})
		return k
	}

	k := build()
	paused, err := k.RunTo(10)
	if !paused || err != nil {
		t.Fatalf("RunTo(10) = %v, %v; want paused", paused, err)
	}
	if got := k.Eng.StepCount(); got != 10 {
		t.Fatalf("paused at step %d, want 10", got)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	k = build()
	paused, err = k.RunTo(1 << 40)
	if paused || err != nil {
		t.Fatalf("RunTo past the end = %v, %v; want settled and ok", paused, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RunTo did not settle a run that ended before the step")
		}
	}()
	_ = k.Finish(nil)
}

// TestRunResumesPausedWorld checks the one run API: a world paused by
// RunTo and finished by Run ends in the same state, byte for byte, as one
// run start to finish, and running the settled world again panics in
// Finish.
func TestRunResumesPausedWorld(t *testing.T) {
	build := func() *kernel.Kernel {
		cfg := testConfig(4)
		cfg.TimerInterval = 1_000_000
		k, _ := kernel.New(cfg)
		task, _ := k.NewTask("t")
		task.Spawn("main", func(th *kernel.Thread) {
			page, err := th.VMAllocate(mem.PageSize)
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			for i := 0; i < 3; i++ {
				va := page + ptable.VAddr(i*8)
				task.Spawn(fmt.Sprintf("child%d", i), func(c *kernel.Thread) {
					for n := uint32(0); n < 40; n++ {
						if c.Write(va, n) != nil {
							return // the page went read-only
						}
						c.Compute(20_000)
					}
				})
			}
			th.Compute(400_000)
			if err := th.VMProtect(page, page+mem.PageSize, pmap.ProtRead); err != nil {
				t.Errorf("protect: %v", err)
			}
		})
		return k
	}
	final := func(k *kernel.Kernel) *snap.Snapshot {
		t.Helper()
		s, err := k.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	whole := build()
	if err := whole.Run(); err != nil {
		t.Fatal(err)
	}
	want := final(whole)
	if whole.Shoot.Stats().Syncs == 0 {
		t.Fatal("the world made no shootdown")
	}

	resumed := build()
	mid := whole.Eng.StepCount() / 2
	if paused, err := resumed.RunTo(mid); !paused || err != nil {
		t.Fatalf("RunTo(%d) = %v, %v; want paused", mid, paused, err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if ok, diff := snap.Equal(want, final(resumed)); !ok {
		t.Fatalf("paused at step %d and resumed, the world ends differently: %s", mid, diff)
	}

	defer func() {
		if r := recover(); r != "kernel: Finish called twice" {
			t.Fatalf("second Run recovered %v, want Finish's panic", r)
		}
	}()
	_ = resumed.Run()
}

func TestVMProtectInheritanceSyscalls(t *testing.T) {
	k, _ := kernel.New(testConfig(2))
	task, _ := k.NewTask("t")
	task.Spawn("main", func(th *kernel.Thread) {
		va, _ := th.VMAllocate(2 * mem.PageSize)
		if err := th.VMSetInheritance(va, va+mem.PageSize, vm.InheritShare); err != nil {
			t.Errorf("inherit: %v", err)
		}
		if err := th.VMProtect(va, va+mem.PageSize, pmap.ProtRead); err != nil {
			t.Errorf("protect: %v", err)
		}
		if err := th.Write(va, 1); !errors.Is(err, kernel.ErrUnrecoverableFault) {
			t.Errorf("write to RO: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChaosSchedulesStillConsistent(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := testConfig(5)
		cfg.ChaosSeed = seed
		k, _ := kernel.New(cfg)
		task, _ := k.NewTask("t")
		var protectedAt sim.Time = -1
		violations := 0
		task.Spawn("main", func(th *kernel.Thread) {
			page, err := th.VMAllocate(mem.PageSize)
			if err != nil {
				return
			}
			for i := 0; i < 3; i++ {
				i := i
				task.Spawn(fmt.Sprintf("c%d", i), func(c *kernel.Thread) {
					for n := uint32(0); ; n++ {
						if c.Write(page+ptable.VAddr(i*4), n) != nil {
							return
						}
						if protectedAt >= 0 && c.Now() > protectedAt {
							violations++
						}
						c.Compute(4_000)
					}
				})
			}
			th.Compute(1_500_000)
			if err := th.VMProtect(page, page+mem.PageSize, pmap.ProtRead); err != nil {
				return
			}
			protectedAt = th.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if violations != 0 {
			t.Fatalf("seed %d: %d stale writes", seed, violations)
		}
	}
}

func TestSemaphore(t *testing.T) {
	k, _ := kernel.New(testConfig(3))
	task, _ := k.NewTask("t")
	var sem kernel.Semaphore
	consumed := 0
	for i := 0; i < 2; i++ {
		task.Spawn(fmt.Sprintf("consumer%d", i), func(th *kernel.Thread) {
			for j := 0; j < 3; j++ {
				th.P(&sem)
				consumed++
			}
		})
	}
	task.Spawn("producer", func(th *kernel.Thread) {
		for j := 0; j < 6; j++ {
			th.Compute(500_000)
			th.V(&sem)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if consumed != 6 {
		t.Fatalf("consumed = %d, want 6", consumed)
	}
}

func TestSemaphoreNoBlockWhenPositive(t *testing.T) {
	k, _ := kernel.New(testConfig(2))
	task, _ := k.NewTask("t")
	task.Spawn("solo", func(th *kernel.Thread) {
		var sem kernel.Semaphore
		th.V(&sem)
		th.V(&sem)
		th.P(&sem) // must not block
		th.P(&sem)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexUnlockByNonHolderPanics(t *testing.T) {
	k, _ := kernel.New(testConfig(2))
	task, _ := k.NewTask("t")
	var mu kernel.Mutex
	panicked := false
	task.Spawn("bad", func(th *kernel.Thread) {
		defer func() {
			panicked = recover() != nil
		}()
		th.Unlock(&mu)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("unlock of unheld mutex should panic")
	}
}

// failStopConfig builds a config with a deterministic fail/revive plan and
// the oracle attached.
func failStopConfig(ncpu int, seed int64, revive bool) kernel.Config {
	cfg := testConfig(ncpu)
	fc := fault.Config{Seed: seed, FailStop: 1, FailStopBy: 5_000_000}
	if revive {
		fc.Revive = 1
		fc.ReviveAfterMax = 2_000_000
	}
	cfg.Machine.Faults = fault.New(fc)
	cfg.Oracle = true
	return cfg
}

// TestFailStopReapsRunningThread pins the lifecycle driver's recovery: a
// thread pinned to a busy loop on a doomed CPU dies with ErrCPUFailed, its
// joiner is released, and the run still completes cleanly.
func TestFailStopReapsRunningThread(t *testing.T) {
	cfg := failStopConfig(3, 21, false)
	k, err := kernel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	task, _ := k.NewTask("t")
	var victims []*kernel.Thread
	// More busy threads than surviving CPUs: some must be running on the
	// doomed CPUs when they fail.
	for i := 0; i < 3; i++ {
		i := i
		victims = append(victims, task.Spawn(fmt.Sprintf("spin%d", i), func(th *kernel.Thread) {
			th.Compute(50_000_000)
		}))
	}
	joined := false
	task.Spawn("joiner", func(th *kernel.Thread) {
		for _, v := range victims {
			th.Join(v)
		}
		joined = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !joined {
		t.Fatal("joiner never released after fail-stops")
	}
	failed := 0
	for _, v := range victims {
		if errors.Is(v.Err, kernel.ErrCPUFailed) {
			failed++
		}
	}
	if got := k.M.Faults().Stats().FailStops; got == 0 {
		t.Fatal("plan applied no fail-stops")
	} else if failed == 0 {
		t.Fatalf("%d CPUs failed but no thread died with ErrCPUFailed", got)
	}
	if k.Oracle.Stats().Violations != 0 {
		t.Fatalf("oracle violations under fail-stop: %v", k.Oracle.Err())
	}
}

// TestHotPlugRevivedCPUSchedulesAgain pins the revive path: after
// fail+revive, every CPU is back online, the revived CPUs dispatch work
// again, and the oracle saw an empty TLB at each revive.
func TestHotPlugRevivedCPUSchedulesAgain(t *testing.T) {
	cfg := failStopConfig(4, 5, true)
	k, err := kernel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	task, _ := k.NewTask("t")
	// Enough medium-length threads that redispatch continues well past the
	// last revive (plan is done by ~7 ms; this workload runs ~10x that).
	cpusSeen := map[int]bool{}
	for i := 0; i < 12; i++ {
		i := i
		task.Spawn(fmt.Sprintf("w%d", i), func(th *kernel.Thread) {
			for j := 0; j < 20; j++ {
				th.Compute(1_000_000)
				th.Yield()
				cpusSeen[th.CPU()] = true
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := k.M.Faults().Stats()
	if st.FailStops == 0 || st.Revives == 0 {
		t.Fatalf("plan applied %d fails, %d revives; want both nonzero", st.FailStops, st.Revives)
	}
	for cpu := 0; cpu < 4; cpu++ {
		if !k.M.CPU(cpu).Online() {
			t.Fatalf("cpu %d still offline after revive plan", cpu)
		}
	}
	if len(cpusSeen) != 4 {
		t.Fatalf("post-revive dispatch only reached CPUs %v", cpusSeen)
	}
	if got := k.Oracle.Stats().CPURevives; got != st.Revives {
		t.Fatalf("oracle saw %d revives, plan applied %d", got, st.Revives)
	}
	if k.Oracle.Stats().Violations != 0 {
		t.Fatalf("oracle violations under hot-plug: %v", k.Oracle.Err())
	}
}

// TestStaleReviveBugCaughtByOracle plants the intentional bug — a revived
// CPU skips its hardware TLB reset — and requires the oracle to flag the
// carried-over entries as stale-after-revive violations.
func TestStaleReviveBugCaughtByOracle(t *testing.T) {
	cfg := failStopConfig(4, 5, true)
	cfg.Machine.SkipReviveFlush = true
	k, err := kernel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	task, _ := k.NewTask("t")
	for i := 0; i < 8; i++ {
		i := i
		task.Spawn(fmt.Sprintf("mem%d", i), func(th *kernel.Thread) {
			va, err := th.VMAllocate(4 * mem.PageSize)
			if err != nil {
				t.Errorf("VMAllocate: %v", err)
				return
			}
			// Keep touching the pages across the whole fail/revive window
			// (~7 ms) so the doomed CPUs hold live TLB entries when they die.
			for j := 0; j < 200; j++ {
				if err := th.Write(va+ptable.VAddr(j%4)*mem.PageSize, uint32(j)); err != nil {
					return // a fail-stopped sibling may have left state; tolerate
				}
				th.Compute(50_000)
			}
		})
	}
	err = k.Run()
	var stale bool
	for _, v := range k.Oracle.Violations() {
		if v.Kind == "stale-after-revive" {
			stale = true
		}
	}
	if !stale {
		t.Fatalf("SkipReviveFlush planted but oracle saw no stale-after-revive violation (err=%v, stats=%+v)",
			err, k.Oracle.Stats())
	}
	if err == nil {
		t.Fatal("run with planted bug reported no error")
	}
}

// TestVerdictClassifiesRunErrors checks that Verdict names how a run ended
// from its error's identity, not its text: a proc that panics with an
// oracle-like message is an error, not an oracle violation.
func TestVerdictClassifiesRunErrors(t *testing.T) {
	engine := func(opts []sim.Option, body func(*sim.Proc)) func() error {
		return func() error {
			e := sim.New(opts...)
			e.Spawn("p", body)
			return e.Run()
		}
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"ok", func() error {
			k, err := kernel.New(testConfig(2))
			if err != nil {
				return err
			}
			task, _ := k.NewTask("t")
			task.Spawn("w", func(th *kernel.Thread) { th.Compute(1000) })
			return k.Run()
		}, kernel.VerdictOK},
		{"deadlock", engine(nil, func(p *sim.Proc) { p.Block() }), kernel.VerdictDeadlock},
		{"time limit", engine([]sim.Option{sim.WithMaxTime(1000)}, func(p *sim.Proc) { p.Sleep(2000) }), kernel.VerdictTimeout},
		{"oracle violation", staleUseErr, kernel.VerdictOracle},
		{"panic naming the oracle", engine(nil, func(p *sim.Proc) {
			panic("oracle: 1 TLB-consistency violation(s)")
		}), kernel.VerdictError},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.run()
			if got := kernel.Verdict(err); got != c.want {
				t.Fatalf("Verdict(%v) = %q, want %q", err, got, c.want)
			}
		})
	}
}

// staleUseErr runs a one-CPU machine that remaps a cached kernel page
// without invalidating its TLB entry, and returns the oracle's error.
func staleUseErr() error {
	eng := sim.New()
	m := machine.New(eng, machine.Options{NumCPUs: 1, MemFrames: 256, Costs: machine.DefaultCosts()})
	kt, err := ptable.New(m.Phys)
	if err != nil {
		return err
	}
	m.SetKernelTable(kt)
	o := oracle.New(m)
	o.Track(kt, tlb.ASIDNone, true)
	m.SetMMUObserver(o)
	va := ptable.VAddr(machine.KernelBase + 0x4000)
	eng.Spawn("main", func(p *sim.Proc) {
		ex := m.Attach(p, 0)
		defer ex.Detach()
		f1, _ := m.Phys.AllocFrame()
		f2, _ := m.Phys.AllocFrame()
		kt.Enter(va, ptable.Make(f1, true))
		ex.Read(va)
		kt.Update(va, ptable.Make(f2, true))
		ex.Read(va) // stale hit
	})
	if err := eng.Run(); err != nil {
		return err
	}
	return o.Err()
}
