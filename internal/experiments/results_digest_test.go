package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// pinnedDir holds two files per pinned result: <name>.json, the result's
// JSON exactly as json.Marshal emits it, and <name>.txt, the text
// `shootdownsim -format table` prints for it.
const pinnedDir = "testdata/results"

// pinArgs are cmd/shootdownsim's flag defaults at seed 7, except that the
// run-count sweeps (fig2, scale, profile) run once per point.
func pinArgs() *Args {
	return &Args{Seed: 7, Runs: 1, Devices: 2, At: 5_000_000}
}

type pin struct {
	name       string
	json, text []byte
	doc        Doc
}

// pinFile is one file under pinnedDir and its bytes.
type pinFile struct {
	name string
	raw  []byte
}

// files are p's two files, JSON first.
func (p pin) files() []pinFile {
	return []pinFile{{p.name + ".json", p.json}, {p.name + ".txt", p.text}}
}

// pinCache holds the pins once pinnedResults has run, so every test over
// them reads the same runs.
var pinCache []pin

// pinnedResults runs every catalog entry and returns each result's JSON,
// Doc and the Doc's text in catalog order. chaos and devices also run with
// PlantBug, as chaos+bug and devices+bug, so the shrink-and-reproducer
// path is pinned too.
func pinnedResults(t *testing.T) []pin {
	t.Helper()
	if pinCache != nil {
		return pinCache
	}
	var pins []pin
	run := func(name string, e Experiment, a *Args) {
		res, err := e.Run(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		doc := res.Doc()
		var text bytes.Buffer
		if err := WriteText(&text, doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pins = append(pins, pin{name, raw, text.Bytes(), doc})
	}
	a := pinArgs()
	bug := pinArgs()
	bug.PlantBug = true
	for _, e := range Catalog {
		run(e.Name, e, a)
		if e.Name == "chaos" || e.Name == "devices" {
			run(e.Name+"+bug", e, bug)
		}
	}
	pinCache = pins
	return pins
}

// TestExperimentDigests pins the virtual-time results of every catalog
// experiment at seed 7: each result's JSON and its rendered text must
// equal its files under testdata/results byte for byte. Any change to a simulated number — a cost constant, an event
// reordering, a harvest that reads a counter at a different moment —
// fails here, naming the experiment and the first JSON value or text line
// that moved. Re-bless an intended change with `make bless`.
func TestExperimentDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	pins := pinnedResults(t)
	if *update {
		for _, pat := range []string{"*.json", "*.txt"} {
			stale, _ := filepath.Glob(filepath.Join(pinnedDir, pat))
			for _, f := range stale {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.MkdirAll(pinnedDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, p := range pins {
			for _, f := range p.files() {
				if err := os.WriteFile(filepath.Join(pinnedDir, f.name), f.raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}
	stale := map[string]bool{}
	for _, pat := range []string{"*.json", "*.txt"} {
		files, err := filepath.Glob(filepath.Join(pinnedDir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			stale[filepath.Base(f)] = true
		}
	}
	for _, p := range pins {
		for _, f := range p.files() {
			delete(stale, f.name)
			want, err := os.ReadFile(filepath.Join(pinnedDir, f.name))
			if err != nil {
				t.Errorf("%s: %v (run make bless to pin it)", f.name, err)
				continue
			}
			if bytes.Equal(want, f.raw) {
				continue
			}
			if filepath.Ext(f.name) == ".json" {
				t.Errorf("%s %s", p.name, firstDiff(want, f.raw))
			} else {
				t.Errorf("%s %s", f.name, firstLineDiff(want, f.raw))
			}
		}
	}
	for _, name := range sortedKeys(stale) {
		t.Errorf("%s is pinned, but no experiment produces it", name)
	}
	if t.Failed() {
		t.Log("make bless re-pins an intended change")
	}
}

// firstLineDiff names the first line where got departs from want, as
// "line n: pinned → got".
func firstLineDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		switch {
		case i == len(w):
			return fmt.Sprintf("line %d: (absent) → %q", i+1, g[i])
		case i == len(g):
			return fmt.Sprintf("line %d: %q → (absent)", i+1, w[i])
		case w[i] != g[i]:
			return fmt.Sprintf("line %d: %q → %q", i+1, w[i], g[i])
		}
	}
	return "differs in bytes, not in any line"
}

// TestDocTablesAreRectangular checks that every pinned report's table rows
// have as many cells as its head row: tabwriter silently misaligns a
// short row.
func TestDocTablesAreRectangular(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, p := range pinnedResults(t) {
		if len(p.doc.Table) == 0 {
			continue
		}
		head := p.doc.Table[0]
		for i, r := range p.doc.Table[1:] {
			if len(r) != len(head) {
				t.Errorf("%s: table row %d has %d cells, head row %q has %d", p.name, i+1, len(r), head, len(head))
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// leaf is one scalar (or empty container) of a JSON document with its
// path from the root, e.g. .Runs[2].KernelEvents.
type leaf struct{ path, val string }

// jsonLeaves lists raw's leaves in document order.
func jsonLeaves(raw []byte) ([]leaf, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var out []leaf
	var walk func(path string) error
	walk = func(path string) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch v := tok.(type) {
		case json.Delim:
			n := 0
			for ; dec.More(); n++ {
				child := fmt.Sprintf("%s[%d]", path, n)
				if v == '{' {
					key, err := dec.Token()
					if err != nil {
						return err
					}
					child = path + "." + key.(string)
				}
				if err := walk(child); err != nil {
					return err
				}
			}
			end, err := dec.Token()
			if err != nil {
				return err
			}
			if n == 0 {
				out = append(out, leaf{path, fmt.Sprintf("%v%v", v, end)})
			}
		case nil:
			out = append(out, leaf{path, "null"})
		case string:
			out = append(out, leaf{path, fmt.Sprintf("%q", v)})
		default:
			out = append(out, leaf{path, fmt.Sprint(v)})
		}
		return nil
	}
	if err := walk(""); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the document")
	}
	return out, nil
}

// firstDiff names the first leaf, in document order, where got departs
// from want, as "path: pinned → got".
func firstDiff(want, got []byte) string {
	w, err := jsonLeaves(want)
	if err != nil {
		return fmt.Sprintf("pinned JSON does not parse: %v", err)
	}
	g, err := jsonLeaves(got)
	if err != nil {
		return fmt.Sprintf("result JSON does not parse: %v", err)
	}
	for i := 0; i < len(w) || i < len(g); i++ {
		switch {
		case i == len(w):
			return fmt.Sprintf("%s: (absent) → %s", g[i].path, g[i].val)
		case i == len(g):
			return fmt.Sprintf("%s: %s → (absent)", w[i].path, w[i].val)
		case w[i].path != g[i].path:
			return fmt.Sprintf("%s: %s → %s: %s", w[i].path, w[i].val, g[i].path, g[i].val)
		case w[i].val != g[i].val:
			return fmt.Sprintf("%s: %s → %s", w[i].path, w[i].val, g[i].val)
		}
	}
	return "differs in bytes, not in any value"
}

func TestFirstDiff(t *testing.T) {
	for _, c := range []struct{ want, got, diff string }{
		{`{"Runs":[{"KernelEvents":204},{"KernelEvents":204}]}`, `{"Runs":[{"KernelEvents":204},{"KernelEvents":200}]}`,
			".Runs[1].KernelEvents: 204 → 200"},
		{`{"A":"x","B":[]}`, `{"A":"y","B":[1]}`, `.A: "x" → "y"`},
		{`{"A":1,"B":[]}`, `{"A":1,"B":[1]}`, ".B: [] → .B[0]: 1"},
		{`{"A":1}`, `{"A":1,"B":null}`, ".B: (absent) → null"},
		{`{"A":1.5}`, `{"A": 1.5}`, "differs in bytes, not in any value"},
	} {
		if got := firstDiff([]byte(c.want), []byte(c.got)); got != c.diff {
			t.Errorf("firstDiff(%s, %s) = %q, want %q", c.want, c.got, got, c.diff)
		}
	}
}
