//go:build go1.23

package hostprof_test

import (
	"iter"
	"testing"

	"shootdown/internal/hostprof"
)

// TestModulelessStacksGetNamedRows checks that allocations the runtime
// records with no module frame — here, iter.Pull's yield closure, made at
// the coroutine's entry — are charged to their innermost frame as an iter
// row instead of dropping out of the tables.
func TestModulelessStacksGetNamedRows(t *testing.T) {
	s := hostprof.NewSampler()
	if err := s.Phase("coro", func() error {
		for i := 0; i < 64; i++ {
			next, stop := iter.Pull(func(yield func(int) bool) { yield(i) })
			next()
			stop()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p := s.Phases()[0]
	var iterBytes int64
	for _, row := range p.Packages {
		if row.Site == "iter" {
			iterBytes = row.Bytes
		}
	}
	if iterBytes == 0 {
		t.Fatalf("no iter package row; packages: %+v", p.Packages)
	}
	if diff := p.CountedBytes - p.MeasuredBytes; diff*100 > p.MeasuredBytes || -diff*100 > p.MeasuredBytes {
		t.Fatalf("attributed %d bytes, measured %d: more than 1%% apart", p.CountedBytes, p.MeasuredBytes)
	}
}
