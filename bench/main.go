// Command shootdown-bench is the repository's benchmark: it measures the
// simulator's host cost end to end on four pinned workloads, and layer by
// layer with a microbenchmark ladder, and checks that every simulated
// result is exactly the pinned one. See README.md; run it from the
// repository root with
//
//	bash bench/run.sh --workload fig2 --seed 1 --seconds 15 --trace 0
//
// Subcommands: set (every workload, interleaved, into a result file),
// compare (two result files against BENCHMARK.json's bounds), explain
// (a result file's layer accounting) and pin (re-bless the digests).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the repository's other benchmarks use.
const defaultSeed = 42

// outDir holds traced samples' CPU profiles and span traces.
const outDir = ".bench_build/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return childMain(args[1:], stdout)
		case "set":
			return setMain(args[1:], stdout, stderr)
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "explain":
			return explainMain(args[1:], stdout, stderr)
		case "pin":
			return pinMain(args[1:], stdout, stderr)
		}
	}
	return benchMain(args, stdout, stderr)
}

// runner starts measurement children. Every sample runs in a fresh child
// process, one child at a time, with GOMAXPROCS=1. Fresh, because a
// finished kernel leaves its procs' goroutines parked on their resume
// channels (internal/sim/sim.go:261) and they keep the whole world
// reachable: in-process repeats grow the heap by one world per run and
// drift. GOMAXPROCS=1, because the engine runs one proc at a time by
// design and a second P only adds scheduler noise to the handoff.
type runner struct {
	exe      string
	stderr   io.Writer
	tiny     bool
	out      string // directory for traced samples' profiles and spans
	deadline time.Time
}

func newRunner(stderr io.Writer, tiny bool, out string, budget time.Duration) (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	return &runner{exe: exe, stderr: stderr, tiny: tiny, out: out, deadline: time.Now().Add(budget)}, nil
}

// child runs one child process and decodes the JSON line it prints.
func (r *runner) child(v any, kind, name string, seed int64) error {
	args := []string{"child", "-kind", kind, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-out", r.out}
	if r.tiny {
		args = append(args, "-tiny")
	}
	ctx, cancel := context.WithDeadline(context.Background(), r.deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = r.stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %s %s: %w", kind, name, err)
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	return json.Unmarshal(out, v)
}

func (r *runner) sample(b bench, seed int64) (sampleResult, error) {
	var s sampleResult
	err := r.child(&s, "sample", b.name, seed)
	if err == nil {
		fmt.Fprintf(r.stderr, "%s seed %d: wall %.3fs alloc %.0fMB rss %.0fMB retained %.0fMB goroutines +%d digest %s %s\n",
			b.name, seed, s.WallS, s.AllocMB, s.PeakRSSMB, s.RetainedMB, s.Leaked, s.Digest, s.Err)
	}
	return s, err
}

func (r *runner) setup(b bench, seed int64) ([]float64, error) {
	var s setupResult
	err := r.child(&s, "setup", b.name, seed)
	return s.Builds, err
}

func (r *runner) ladder() (ladderResult, error) {
	var l ladderResult
	err := r.child(&l, "ladder", "", 0)
	return l, err
}

// traced runs the workload's traced sample and completes its per-layer
// metrics. Tracing must not perturb the simulation: a traced digest that
// differs from the untraced one fails the sample's worlds.
func (r *runner) traced(b bench, seed int64, w *workloadResult, l ladderResult) error {
	var s sampleResult
	if err := r.child(&s, "traced", b.name, seed); err != nil {
		return err
	}
	w.Attempted += s.Attempted
	if s.Err != "" || s.Digest != w.Digest {
		w.Failed += s.Attempted
		w.Errors = append(w.Errors, fmt.Sprintf("traced sample: digest %s, want %s %s", s.Digest, w.Digest, s.Err))
	}
	ctx, cancel := context.WithDeadline(context.Background(), r.deadline)
	defer cancel()
	cpu, err := cpuRollup(ctx, s.Profile)
	if err != nil {
		return err
	}
	w.perLayer(l, s, cpu)
	fmt.Fprintf(r.stderr, "%s traced: wall %.3fs, spans %s, profile %s\n", b.name, s.WallS, s.Trace, s.Profile)
	return nil
}

func provenanceOf(seed int64, tiny bool) provenance {
	// Only a git checkout has a commit; elsewhere git would search the
	// directories above the working directory for one.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return provenance{GoVersion: runtime.Version(), ChildGOMAXPROCS: 1, NProc: runtime.NumCPU(), Commit: commit, Seed: seed, Tiny: tiny}
}

// benchMain is one invocation on one workload: fresh sample children
// until the time is up, each followed by a setup child, reported as
// end-to-end metrics; or, with -trace 1, the samples, the ladder and a
// traced sample, reported as per-layer metrics. The last line of stdout
// is the result as JSON.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shootdown-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig2, table1, camelot or churn-observed")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "start samples for this long")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from the ladder and a traced sample")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := benchRun(stdout, stderr, *name, *seed, *seconds, *traced == 1, false, outDir); err != nil {
		fmt.Fprintf(stderr, "shootdown-bench: %v\n", err)
		return 1
	}
	return 0
}

// invocationBudget keeps one invocation, children included, under the
// three minutes a run may take.
const invocationBudget = 170 * time.Second

func benchRun(stdout, stderr io.Writer, name string, seed int64, seconds float64, traced, tiny bool, out string) error {
	runtime.GOMAXPROCS(1)
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	b, err := benchByName(name)
	if err != nil {
		return err
	}
	r, err := newRunner(stderr, tiny, out, invocationBudget)
	if err != nil {
		return err
	}
	start := time.Now()
	var samples []sampleResult
	var setup []float64
	for len(samples) == 0 || time.Since(start).Seconds() < seconds {
		s, err := r.sample(b, seed)
		if err != nil {
			return err
		}
		samples = append(samples, s)
		if traced {
			continue
		}
		// A setup child after every sample: the median build then reads
		// the host at as many moments as wall_s does, not at one.
		builds, err := r.setup(b, seed)
		if err != nil {
			return err
		}
		setup = append(setup, builds...)
	}
	w, err := aggregate(name, seed, tiny, samples, setup)
	if err != nil {
		return err
	}
	var l ladderResult
	if traced {
		if l, err = r.ladder(); err != nil {
			return err
		}
		if err := r.traced(b, seed, w, l); err != nil {
			return err
		}
	}
	metrics, err := metricValues(sp, w, l, traced)
	if err != nil {
		return err
	}
	for _, e := range w.Errors {
		fmt.Fprintf(stderr, "%s: %s\n", name, e)
	}
	prov, err := json.Marshal(provenanceOf(seed, tiny))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	return json.NewEncoder(stdout).Encode(map[string]any{
		"correct":   w.Failed == 0 && len(w.Errors) == 0,
		"attempted": w.Attempted,
		"failed":    w.Failed,
		"metrics":   metrics,
	})
}

// setMain measures every workload into one result file: samples, each
// followed by its setup child, interleaved round-robin across workloads,
// then the ladder and each workload's traced sample.
func setMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("set", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "result file to write")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	if err := fs.Parse(args); err != nil || *out == "" {
		fmt.Fprintln(stderr, "usage: set -out result.json [-seed n]")
		return 2
	}
	rs, err := measureSet(stderr, *seed)
	if err == nil {
		var data []byte
		if data, err = json.MarshalIndent(rs, "", "  "); err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "set: %v\n", err)
		return 1
	}
	failed := 0
	for _, name := range sortedKeys(rs.Workloads) {
		w := rs.Workloads[name]
		failed += w.Failed
		fmt.Fprintf(stdout, "%-15s wall_s %.3f  setup_s %.5f  alloc_mb %.0f  explain %.0f%%  failed %d/%d  digest %s\n",
			name, w.E2E["wall_s"].Value, w.E2E["setup_s"].Value, w.E2E["alloc_mb"].Value,
			w.PerLayer["explain.pct"], w.Failed, w.Attempted, w.Digest)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// setSamples is how many untraced samples of each workload a set takes.
const setSamples = 12

func measureSet(stderr io.Writer, seed int64) (*resultSet, error) {
	runtime.GOMAXPROCS(1)
	r, err := newRunner(stderr, false, outDir, 4*time.Hour)
	if err != nil {
		return nil, err
	}
	samples := map[string][]sampleResult{}
	setup := map[string][]float64{}
	for i := 0; i < setSamples; i++ {
		for _, b := range benches {
			s, err := r.sample(b, seed)
			if err != nil {
				return nil, err
			}
			samples[b.name] = append(samples[b.name], s)
			builds, err := r.setup(b, seed)
			if err != nil {
				return nil, err
			}
			setup[b.name] = append(setup[b.name], builds...)
		}
	}
	l, err := r.ladder()
	if err != nil {
		return nil, err
	}
	rs := &resultSet{Provenance: provenanceOf(seed, false), Workloads: map[string]*workloadResult{}, Ladder: l}
	for _, b := range benches {
		w, err := aggregate(b.name, seed, false, samples[b.name], setup[b.name])
		if err != nil {
			return nil, err
		}
		if err := r.traced(b, seed, w, l); err != nil {
			return nil, err
		}
		rs.Workloads[b.name] = w
	}
	return rs, nil
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: compare a.json b.json")
		return 2
	}
	sp, err := loadSpec()
	var a, b *resultSet
	if err == nil {
		a, err = readSet(args[0])
	}
	if err == nil {
		b, err = readSet(args[1])
	}
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	if !compareSets(stdout, sp, a, b) {
		return 1
	}
	return 0
}

func explainMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: explain result.json")
		return 2
	}
	rs, err := readSet(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "explain: %v\n", err)
		return 2
	}
	for _, name := range sortedKeys(rs.Workloads) {
		w := rs.Workloads[name]
		scale := ladderScale(rs.Ladder)
		printExplain(stdout, name, explainTerms(w.Counts, rs.Ladder, scale), w.E2E["wall_s"].Value, scale)
		fmt.Fprintln(stdout)
	}
	return 0
}

// pinnedSeeds are the seeds pins.json holds digests for.
var pinnedSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, defaultSeed}

// pinMain re-blesses the digests: it runs one full-size sample per
// workload and pinned seed and writes their digests to bench/pins.json.
// Run it only when a change to the simulated results is intended.
func pinMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "usage: pin")
		return 2
	}
	out := filepath.Join("bench", "pins.json")
	err := func() error {
		r, err := newRunner(stderr, false, outDir, 4*time.Hour)
		if err != nil {
			return err
		}
		pins := map[string]map[string]string{}
		for _, b := range benches {
			pins[b.name] = map[string]string{}
			for _, seed := range pinnedSeeds {
				s, err := r.sample(b, seed)
				if err == nil && (s.Err != "" || s.Failed > 0) {
					err = errors.New(s.Err)
				}
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", b.name, seed, err)
				}
				pins[b.name][strconv.FormatInt(seed, 10)] = s.Digest
			}
		}
		data, err := json.MarshalIndent(pins, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(out, append(data, '\n'), 0o644)
	}()
	if err != nil {
		fmt.Fprintf(stderr, "pin: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return 0
}
