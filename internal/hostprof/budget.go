package hostprof

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Budget caps the bytes each package may allocate in a phase:
// Budget[phase][package] is the package's ceiling. It turns the
// attribution tables into a ratchet: once a change removes an
// allocation, lowering the ceiling keeps it removed.
type Budget map[string]map[string]int64

// LoadBudget reads a budget file: one "phase package max-bytes" entry per
// line; blank lines and lines starting with # are skipped.
func LoadBudget(path string) (Budget, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := Budget{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want \"phase package max-bytes\", got %q", path, line, text)
		}
		max, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || max < 0 {
			return nil, fmt.Errorf("%s:%d: bad byte ceiling %q", path, line, fields[2])
		}
		phase, pkg := fields[0], fields[1]
		if b[phase] == nil {
			b[phase] = map[string]int64{}
		}
		if _, dup := b[phase][pkg]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry for %s in phase %s", path, line, pkg, phase)
		}
		b[phase][pkg] = max
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// CheckBudget reports every breach of b: a budgeted phase missing from
// the report, a package allocating more than its ceiling, and a package
// allocating in a budgeted phase without a ceiling of its own. Phases
// the budget does not name are not checked.
func (r *Report) CheckBudget(b Budget) error {
	phases := make([]string, 0, len(b))
	for name := range b {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	var errs []error
	for _, name := range phases {
		p := r.phase(name)
		if p == nil {
			errs = append(errs, fmt.Errorf("phase %q: budgeted but not recorded", name))
			continue
		}
		for _, row := range p.Packages {
			max, ok := b[name][row.Site]
			switch {
			case !ok:
				errs = append(errs, fmt.Errorf("phase %q: package %s allocates %d B but has no budget entry", name, row.Site, row.Bytes))
			case row.Bytes > max:
				errs = append(errs, fmt.Errorf("phase %q: package %s allocates %d B, over its budget of %d B", name, row.Site, row.Bytes, max))
			}
		}
	}
	return errors.Join(errs...)
}
