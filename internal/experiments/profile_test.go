package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"shootdown/internal/profile"
)

// TestProfileShapes checks the experiment against the paper's cost
// narrative: every sweep point reconstructs all its shootdowns, the masked
// interval dominates the last responder's response time, and bus queueing
// rises sharply past 12 processors.
func TestProfileShapes(t *testing.T) {
	const runs = 2
	r, err := Profile(&Args{Seed: 42, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(profileKs) {
		t.Fatalf("got %d points, want %d", len(r.Points), len(profileKs))
	}
	for _, p := range r.Points {
		if p.Shootdowns != runs {
			t.Errorf("k=%d reconstructed %d shootdowns, want %d", p.Processors, p.Shootdowns, runs)
		}
		if p.MaskedShare <= 0.5 {
			t.Errorf("k=%d masked share %.2f, want > 0.5 (masked intervals must dominate)",
				p.Processors, p.MaskedShare)
		}
		if got := p.WhyMasked + p.WhyDispatch + p.WhyBus; got != p.Shootdowns {
			t.Errorf("k=%d why counts sum to %d, want %d", p.Processors, got, p.Shootdowns)
		}
	}
	lo, mid, hi := r.point(4), r.point(8), r.point(15)
	if lo == nil || mid == nil || hi == nil {
		t.Fatal("sweep missing k=4, k=8, or k=15")
	}
	if hi.BusShare < 2*lo.BusShare {
		t.Errorf("bus share did not rise at the knee: k=4 %.3f, k=15 %.3f (want ≥2×)",
			lo.BusShare, hi.BusShare)
	}
	if p13 := r.point(13); p13 != nil && p13.BusShare <= mid.BusShare {
		t.Errorf("bus share flat across the knee: k=8 %.3f, k=13 %.3f", mid.BusShare, p13.BusShare)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].MeanSyncUS <= r.Points[i-1].MeanSyncUS {
			t.Errorf("mean sync not increasing: k=%d %.0fµs vs k=%d %.0fµs",
				r.Points[i-1].Processors, r.Points[i-1].MeanSyncUS,
				r.Points[i].Processors, r.Points[i].MeanSyncUS)
		}
	}
}

// TestProfileDeterministic runs the experiment twice with fresh profilers
// and requires byte-identical folded stacks: profiles are a pure function
// of the seed.
func TestProfileDeterministic(t *testing.T) {
	fold := func() []byte {
		r, err := Profile(&Args{Seed: 42, Runs: 1})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := r.Prof.WriteFolded(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := fold(), fold()
	if len(a) == 0 {
		t.Fatal("folded profile is empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("folded profiles differ across same-seed runs (%d vs %d bytes)", len(a), len(b))
	}
}

// TestProfileUsesSuppliedProfiler checks that an Instrument-supplied
// profiler is the one the result retains (so -profile and the experiment
// share one attribution stream).
func TestProfileUsesSuppliedProfiler(t *testing.T) {
	p := profile.New()
	r, err := Profile(&Args{Seed: 7, Runs: 1, In: Instrument{Profiler: p}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Prof != p {
		t.Error("result did not retain the supplied profiler")
	}
	if len(p.Shootdowns()) == 0 {
		t.Error("supplied profiler recorded no shootdowns")
	}
}

// TestPoolsProfilesItsShootdowns checks that Pools, which builds bare
// machines with no kernel, still feeds a supplied profiler: both kernel
// shootdowns of every machine size are reconstructed, and profiling leaves
// the measured costs unchanged.
func TestPoolsProfilesItsShootdowns(t *testing.T) {
	plain, err := Pools(&Args{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New()
	r, err := Pools(&Args{Seed: 3, In: Instrument{Profiler: p}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, r) {
		t.Fatalf("profiling perturbed Pools:\n  off: %+v\n  on:  %+v", plain, r)
	}
	recs := p.Shootdowns()
	if len(recs) != 2*len(r.Rows) {
		t.Fatalf("profiler reconstructed %d shootdowns, want %d", len(recs), 2*len(r.Rows))
	}
	for _, rec := range recs {
		if !rec.Kernel || rec.EndT == 0 || rec.LastResponder() == nil {
			t.Errorf("incomplete kernel shootdown record: %+v", rec)
		}
	}
}
