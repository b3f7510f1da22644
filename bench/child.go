package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// sampleResult is one sample, measured in a fresh child process.
type sampleResult struct {
	WallS      float64 `json:"wall_s"`
	AllocMB    float64 `json:"alloc_mb"`
	RetainedMB float64 `json:"retained_mb"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	// RefS is the reference loop's faster time, run before and after the
	// workload in this process (see refLoop).
	RefS float64 `json:"ref_s"`
	// LiveGoroutines counts goroutines still alive after the run and a GC;
	// Leaked is that count minus the count before the run.
	LiveGoroutines int                `json:"live_goroutines"`
	Leaked         int                `json:"leaked_goroutines"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Err            string             `json:"err,omitempty"`
	Digest         string             `json:"digest"`
	Counts         map[string]float64 `json:"counts"`
	Accuracy       map[string]float64 `json:"accuracy"`
	Profile        string             `json:"profile,omitempty"`
	Trace          string             `json:"trace,omitempty"`
}

// setupResult is the host time of each world build in a setup child.
type setupResult struct {
	Builds []float64 `json:"builds_s"`
}

// childMain runs one measurement in this process — which the parent
// started fresh, with GOMAXPROCS=1 — and prints it as one JSON line.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	kind := fs.String("kind", "sample", "sample, traced, setup or ladder")
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	tiny := fs.Bool("tiny", false, "run the tiny size")
	out := fs.String("out", "", "directory for the traced sample's CPU profile and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz := fullSize
	if *tiny {
		sz = tinySize
	}
	var res any
	var err error
	switch *kind {
	case "ladder":
		res, err = runLadder(*tiny)
	case "sample", "traced", "setup":
		var b bench
		if b, err = benchByName(*name); err != nil {
			break
		}
		switch *kind {
		case "sample":
			res = runSample(b, *seed, sz, "")
		case "traced":
			res = runSample(b, *seed, sz, *out)
		default:
			res, err = runSetup(b, *seed, sz)
		}
	default:
		err = fmt.Errorf("unknown child kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "child %s: %v\n", *kind, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "child %s: %v\n", *kind, err)
		return 1
	}
	return 0
}

// runSample runs one closed-loop batch of worlds and accounts for it.
// With outDir set the sample is traced: a CPU profile and host-time spans
// are written there, and its numbers feed only per-layer metrics.
func runSample(b bench, seed int64, sz size, outDir string) sampleResult {
	r := sampleResult{Attempted: b.planned(sz)}
	ref := refLoop()
	var spans *spanLog
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.name, seed))
	if outDir != "" {
		f, err := os.Create(stem + ".cpu.pprof")
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			r.Err, r.Failed = err.Error(), r.Attempted
			return r
		}
		defer f.Close()
		spans = newSpanLog()
		r.Profile = f.Name()
	}
	o := newObserver(spans)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	g0 := runtime.NumGoroutine()
	spans.begin("sample")
	t0 := time.Now()
	res, err := b.run(seed, sz, o)
	r.WallS = time.Since(t0).Seconds()
	spans.end()
	if outDir != "" {
		pprof.StopCPUProfile()
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.LiveGoroutines = runtime.NumGoroutine()
	r.Leaked = r.LiveGoroutines - g0
	r.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	r.RetainedMB = float64(m1.HeapAlloc) / 1e6
	r.RefS = min(ref, refLoop())
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB
	}

	o.finish()
	r.Counts, r.Accuracy, r.Failed = o.counts, o.accuracy, o.failed
	r.Counts["leak.goroutines"] = float64(r.Leaked)
	r.Digest, err = digest(res, err)
	if err != nil {
		r.Err, r.Failed = err.Error(), r.Attempted
	}
	if spans != nil {
		r.Trace = stem + ".trace.json"
		if err := spans.write(r.Trace); err != nil {
			r.Err = err.Error()
		}
	}
	return r
}

// digest is the 64-bit FNV-1a hash (internal/snap's digest algorithm)
// of the result's canonical JSON.
func digest(res any, runErr error) (string, error) {
	if runErr != nil {
		return "", runErr
	}
	data, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// setupBuilds is how many worlds a setup child builds.
const setupBuilds = 21

// runSetup times builds of one world at the workload's shape.
func runSetup(b bench, seed int64, sz size) (setupResult, error) {
	r := setupResult{Builds: make([]float64, setupBuilds)}
	for i := range r.Builds {
		t0 := time.Now()
		if err := b.shape(seed, sz); err != nil {
			return r, err
		}
		r.Builds[i] = time.Since(t0).Seconds()
	}
	return r, nil
}
