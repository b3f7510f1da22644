package experiments

import (
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/profile"
	"shootdown/internal/trace"
	"shootdown/internal/workload"
)

// TestInstrumentApp pins App's merge rules: the oracle is on if either
// side asks for it, the instrument's faults replace the world's only when
// enabled, the campaign watchdog is armed only when enabled faults go into
// a world with no watchdog of its own, and the four hooks are copied.
func TestInstrumentApp(t *testing.T) {
	own := &fault.Config{DropIPI: 0.1}
	injected := &fault.Config{DelayIPI: 0.2}
	disabled := &fault.Config{}
	ownWatchdog := core.Options{WatchdogTimeout: 5_000_000}
	for _, c := range []struct {
		name       string
		in         Instrument
		app        workload.AppConfig
		wantOracle bool
		wantFaults *fault.Config
		wantWD     core.Options
	}{
		{name: "bare", wantFaults: nil},
		{name: "world oracle", app: workload.AppConfig{Oracle: true}, wantOracle: true},
		{name: "instrument oracle", in: Instrument{Oracle: true}, wantOracle: true},
		{name: "world faults stand", app: workload.AppConfig{Faults: own}, wantFaults: own},
		{name: "disabled faults override nothing",
			in: Instrument{Faults: disabled}, app: workload.AppConfig{Faults: own}, wantFaults: own},
		{name: "enabled faults win",
			in: Instrument{Faults: injected}, app: workload.AppConfig{Faults: own},
			wantFaults: injected, wantWD: campaignWatchdog},
		{name: "own watchdog kept",
			in: Instrument{Faults: injected}, app: workload.AppConfig{ShootdownOptions: ownWatchdog},
			wantFaults: injected, wantWD: ownWatchdog},
		{name: "disabled faults arm no watchdog", in: Instrument{Faults: disabled}},
	} {
		got := c.in.App(c.app)
		if got.Oracle != c.wantOracle {
			t.Errorf("%s: Oracle = %v, want %v", c.name, got.Oracle, c.wantOracle)
		}
		if got.Faults != c.wantFaults {
			t.Errorf("%s: Faults = %+v, want %+v", c.name, got.Faults, c.wantFaults)
		}
		if got.ShootdownOptions != c.wantWD {
			t.Errorf("%s: ShootdownOptions = %+v, want %+v", c.name, got.ShootdownOptions, c.wantWD)
		}
	}

	tr, err := trace.New(16)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := trace.NewRecorder(16)
	if err != nil {
		t.Fatal(err)
	}
	observed := false
	in := Instrument{Tracer: tr, Profiler: profile.New(), Flight: fr, Observe: func(*kernel.Kernel) { observed = true }}
	got := in.App(workload.AppConfig{})
	if got.Tracer != in.Tracer || got.Profiler != in.Profiler || got.Flight != in.Flight || got.Observe == nil {
		t.Fatalf("hooks not copied: %+v", got)
	}
	if got.Observe(nil); !observed {
		t.Fatal("App's Observe is not the instrument's")
	}
}
