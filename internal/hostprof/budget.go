package hostprof

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"slices"
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

// CheckBudget reports every breach of b by phases: a budgeted phase that
// was not recorded, a package allocating more than its ceiling, and a
// package allocating in a budgeted phase without a ceiling of its own.
// A package's breach names its top allocating functions, so the message
// points at the allocation site. Phases the budget does not name are not
// checked.
func CheckBudget(phases []PhaseCost, b Budget) error {
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	var errs []error
	for _, name := range names {
		i := slices.IndexFunc(phases, func(p PhaseCost) bool { return p.Name == name })
		if i < 0 {
			errs = append(errs, fmt.Errorf("phase %q: budgeted but not recorded", name))
			continue
		}
		p := &phases[i]
		for _, row := range p.Packages {
			max, ok := b[name][row.Site]
			switch {
			case !ok:
				errs = append(errs, fmt.Errorf("phase %q: package %s allocates %d B but has no budget entry; top functions: %s",
					name, row.Site, row.Bytes, p.topSites(row.Site, 3)))
			case row.Bytes > max:
				errs = append(errs, fmt.Errorf("phase %q: package %s allocates %d B, over its budget of %d B; top functions: %s",
					name, row.Site, row.Bytes, max, p.topSites(row.Site, 3)))
			}
		}
	}
	return errors.Join(errs...)
}

// topSites lists the phase's n largest functions in package pkg with
// their bytes.
func (p *PhaseCost) topSites(pkg string, n int) string {
	var top []string
	for _, sc := range p.Sites {
		if len(top) == n {
			break
		}
		if sc.Package == pkg {
			top = append(top, fmt.Sprintf("%s %d B", sc.Site, sc.Bytes))
		}
	}
	return strings.Join(top, ", ")
}

// CheckCoverage fails unless every phase attributes between minPct and
// 200−minPct percent of its measured bytes (99 allows 1% either way): a
// phase outside that band has allocations the profile walk lost or
// double-counted.
func CheckCoverage(phases []PhaseCost, minPct float64) error {
	for i := range phases {
		p := &phases[i]
		if p.MeasuredBytes == 0 {
			return fmt.Errorf("phase %q measured zero bytes", p.Name)
		}
		if cov := 100 * float64(p.CountedBytes) / float64(p.MeasuredBytes); cov < minPct || cov > 200-minPct {
			return fmt.Errorf("phase %q attributes %.2f%% of its measured bytes (%d of %d), outside %.0f–%.0f%%",
				p.Name, cov, p.CountedBytes, p.MeasuredBytes, minPct, 200-minPct)
		}
	}
	return nil
}
