package hostprof_test

import (
	"runtime"
	"testing"
	"time"

	"shootdown/internal/experiments"
)

// TestFig2CampaignLeavesNoWorld runs Figure 2's 45-kernel campaign (15
// child counts, 3 runs each) and checks that no world outlives it: the
// goroutine count and the post-GC heap return to their baseline. A world
// whose procs stayed parked would keep its goroutines, and through them
// its whole kernel, alive. Goroutines exit asynchronously, so each count
// is taken once it has held still (the method of internal/sim's
// TestFinishedProcsReleaseTheirGoroutines). One warm-up world is run
// first, so one-time setup does not count as growth.
func TestFig2CampaignLeavesNoWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 2 campaign")
	}
	// 1 MB is well under one 16-CPU world's retained heap, and well over
	// the runtime's own post-GC noise.
	const heapSlack = 1 << 20
	if _, err := experiments.Fig2(7, 1); err != nil {
		t.Fatal(err)
	}
	g0, h0 := settled()
	if _, err := experiments.Fig2(7, 3); err != nil {
		t.Fatal(err)
	}
	g1, h1 := settled()
	if g1 != g0 {
		t.Errorf("%d goroutines after the campaign, want the baseline %d", g1, g0)
	}
	if h1 > h0+heapSlack {
		t.Errorf("post-GC heap %d B after the campaign, %d B over the baseline %d B (slack %d B)", h1, h1-h0, h0, heapSlack)
	}
}

// settled returns the goroutine count once it has held still for 20 ms
// (or after 5 s), and the heap in use after a full collection then.
func settled() (goroutines int, heap uint64) {
	n := runtime.NumGoroutine()
	for deadline, still := time.Now().Add(5*time.Second), 0; still < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return n, ms.HeapAlloc
}
