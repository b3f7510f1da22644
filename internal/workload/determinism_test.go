package workload

import (
	"reflect"
	"strings"
	"testing"

	"shootdown/internal/kernel"
	"shootdown/internal/profile"
	"shootdown/internal/trace"
)

// observers selects which subscribers of the observation stream a run has
// attached.
type observers struct{ tracer, profiler, flight bool }

// assertUnperturbed pins the §6.1 guarantee the observation stream makes:
// its ring, the virtual-time profiler and the flight recorder charge no
// virtual time and consume no simulation randomness, so every measured
// result is bit-identical with any set of them attached. It also checks
// the attached observers recorded something, or the guard is vacuous.
func assertUnperturbed(t *testing.T, o observers) {
	t.Helper()
	run := func(app AppConfig) TesterResult {
		t.Helper()
		app.NCPUs, app.Seed = 8, 7
		res, err := RunTester(TesterConfig{Children: 4, App: app})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var app AppConfig
	if o.tracer {
		tr, err := trace.New(1 << 18)
		if err != nil {
			t.Fatal(err)
		}
		app.Tracer = tr
	}
	if o.profiler {
		app.Profiler = profile.New()
	}
	if o.flight {
		fr, err := trace.NewRecorder(1 << 12)
		if err != nil {
			t.Fatal(err)
		}
		app.Flight = fr
	}
	if plain, got := run(AppConfig{}), run(app); !reflect.DeepEqual(plain, got) {
		t.Fatalf("observation perturbed the run:\n  off: %+v\n  on:  %+v", plain, got)
	}
	if o.tracer {
		// The ring covers the instrumented layers.
		for _, cat := range []trace.Category{trace.CatMachine, trace.CatShootdown, trace.CatTLB, trace.CatKernel} {
			if len(app.Tracer.Select(cat)) == 0 {
				t.Errorf("no %v events in the ring", cat)
			}
		}
	}
	if o.profiler {
		// The profiler attributed time and rebuilt shootdowns.
		p := app.Profiler
		if p.NumCPUs() == 0 || len(p.Shootdowns()) == 0 {
			t.Error("profiler recorded nothing")
		}
		tot := p.Totals()
		for _, ph := range []profile.Phase{profile.PhaseRun, profile.PhaseIdle, profile.PhaseMasked, profile.PhaseBusStall} {
			if tot.Of(ph) == 0 {
				t.Errorf("no %v time attributed", ph)
			}
		}
	}
	if o.flight && app.Flight.Ring().Len() == 0 {
		t.Error("flight recorder's ring holds no events")
	}
}

// TestTracingIsPerturbationFree checks the event ring alone leaves the
// run unchanged.
func TestTracingIsPerturbationFree(t *testing.T) {
	assertUnperturbed(t, observers{tracer: true})
}

// TestProfilingIsPerturbationFree checks the virtual-time profiler alone
// leaves the run unchanged.
func TestProfilingIsPerturbationFree(t *testing.T) {
	assertUnperturbed(t, observers{profiler: true})
}

// TestObservationIsPerturbationFree checks the flight recorder alone, and
// all three subscribers on one stream, leave the run unchanged.
func TestObservationIsPerturbationFree(t *testing.T) {
	cases := []struct {
		name string
		o    observers
	}{
		{name: "flight", o: observers{flight: true}},
		{name: "all", o: observers{tracer: true, profiler: true, flight: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { assertUnperturbed(t, c.o) })
	}
}

// TestObserveHookSeesFinishedKernel checks the metrics hook fires after the
// run with the kernel's final state visible.
func TestObserveHookSeesFinishedKernel(t *testing.T) {
	var ms *trace.MetricSet
	cfg := TesterConfig{Children: 4, App: AppConfig{NCPUs: 8, Seed: 7}}
	cfg.App.Observe = func(k *kernel.Kernel) { ms = k.Metrics() }
	if _, err := RunTester(cfg); err != nil {
		t.Fatal(err)
	}
	if ms == nil {
		t.Fatal("Observe hook never ran")
	}
	out := ms.String()
	for _, want := range []string{"shootdown_syncs_total", "tlb_misses_total", "sim_virtual_time_seconds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics snapshot missing %s:\n%s", want, out)
		}
	}
}
