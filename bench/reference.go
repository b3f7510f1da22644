package main

import (
	"container/heap"
	"math/rand"
	"sync"
	"time"
)

const (
	// refSteps is the reference loop's fixed amount of work.
	refSteps = 100_000
	// refSeconds is the reference loop's fastest time on the host the
	// baselines were recorded on (a 2-vCPU Xeon VM, go1.24.0). wall_s
	// is scaled to it, so it reads as seconds on that host.
	refSeconds = 0.056
)

// refProc is one goroutine of the reference loop.
type refProc struct {
	at     int64
	seq    uint64
	resume chan struct{}
}

type refHeap []*refProc

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refProc)) }
func (h *refHeap) Pop() any {
	old := *h
	p := old[len(old)-1]
	*h = old[:len(old)-1]
	return p
}

// refLoop times a fixed miniature of the engine's handoff that shares no
// code with the simulator: 24 goroutines resumed in time order through a
// heap, with a scan for ties, one unbuffered-channel round trip and a
// small allocation per step. Other tenants of a shared host slow it the
// way they slow the engine, so dividing by its fastest time cancels the
// host out of wall_s, while a change to the simulator moves the engine
// and not this loop. Its goroutines have exited when it returns.
func refLoop() float64 {
	const procs = 24
	rng := rand.New(rand.NewSource(1))
	yield := make(chan *refProc)
	var wg sync.WaitGroup
	h := &refHeap{}
	for i := 0; i < procs; i++ {
		p := &refProc{at: int64(i), seq: uint64(i), resume: make(chan struct{})}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range p.resume {
				p.at += 1 + rng.Int63n(8)
				yield <- p
			}
		}()
		heap.Push(h, p)
	}
	seq := uint64(procs)
	var keep [][]byte
	t0 := time.Now()
	for s := 0; s < refSteps; s++ {
		ties := 0
		for _, p := range *h {
			if p.at == (*h)[0].at {
				ties++
			}
		}
		p := heap.Pop(h).(*refProc)
		p.resume <- struct{}{}
		p = <-yield
		p.seq, seq = seq, seq+1
		heap.Push(h, p)
		if b := make([]byte, 16+ties); s%64 == 0 {
			keep = append(keep, b)
		}
	}
	d := time.Since(t0).Seconds()
	for _, p := range *h {
		close(p.resume)
	}
	wg.Wait()
	return d
}
