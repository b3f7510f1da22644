// Package a exercises the simdeterminism analyzer: wall-clock time,
// global randomness, host environment, host-profiling calls, and
// map-order leaks.
package a

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"lint.test/hostprof"
)

func sink(string) {}

func wallClock() time.Duration {
	t0 := time.Now()             // want `call to time\.Now in simulated code`
	time.Sleep(time.Millisecond) // want `call to time\.Sleep in simulated code`
	return time.Since(t0)        // want `call to time\.Since in simulated code`
}

func virtualTimeTypesAreFine(d time.Duration) time.Duration {
	return d * 2 // ok: time.Duration arithmetic reads no clock
}

func globalRand() int {
	return rand.Intn(4) // want `call to global math/rand\.Intn in simulated code`
}

func seededRand() int {
	r := rand.New(rand.NewSource(1)) // ok: explicit seeded source
	return r.Intn(4)                 // ok: method on a *rand.Rand
}

func env() string {
	return os.Getenv("HOME") // want `call to os\.Getenv in simulated code`
}

func hostHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)     // want `call to runtime\.ReadMemStats in simulated code`
	runtime.MemProfile(nil, true) // want `call to runtime\.MemProfile in simulated code`
	return ms.HeapAlloc
}

func hostPhaseLabels(ctx context.Context) {
	labels := pprof.Labels("phase", "fig2")         // ok: building a label set reads nothing
	pprof.Do(ctx, labels, func(context.Context) {}) // want `call to runtime/pprof\.Do in simulated code`
	pprof.StartCPUProfile(nil)                      // want `call to runtime/pprof\.StartCPUProfile in simulated code`
	pprof.StopCPUProfile()                          // want `call to runtime/pprof\.StopCPUProfile in simulated code`
}

func hostSamplerInSim() *hostprof.Sampler {
	return hostprof.NewSampler() // want `call to lint\.test/hostprof\.NewSampler in simulated code`
}

func injectedSamplerIsFine(s *hostprof.Sampler) error {
	return s.Phase("fig2", func() error { return nil }) // ok: method on an injected sampler
}

func mapOrderLeak(m map[string]int) {
	for k := range m { // want `iteration over a map calls sink in its body`
		sink(k)
	}
}

func mapAggregate(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v // ok: order-insensitive aggregation
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // ok: building a key slice to sort
	}
	_ = keys
	return total
}

func mapNoBinding(m map[string]int) {
	for range m { // ok: no bound variable, the order cannot leak
		sink("tick")
	}
}

func suppressed(m map[string]int) {
	//lint:allow simdeterminism fixture demonstrates a reasoned suppression
	for k := range m {
		sink(k)
	}
}
