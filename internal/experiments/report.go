package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Doc is an experiment's printed report: lines, at most one table, then
// more lines. A blank line is "". Table is a head row followed by data
// rows, each a list of cells.
type Doc struct {
	Head  []string
	Table [][]string
	Notes []string
}

// WriteText writes d as `shootdownsim -format table` prints it: each Head
// line, the table with its columns aligned, then each Notes line.
func WriteText(w io.Writer, d Doc) error {
	var b strings.Builder
	for _, l := range d.Head {
		b.WriteString(l + "\n")
	}
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	for _, r := range d.Table {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, l := range d.Notes {
		b.WriteString(l + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// line adds the formatted text as lines, a newline in it starting the
// next: to Head until the table has a row, to Notes after.
func (d *Doc) line(format string, args ...any) {
	lines := strings.Split(fmt.Sprintf(format, args...), "\n")
	if len(d.Table) == 0 {
		d.Head = append(d.Head, lines...)
	} else {
		d.Notes = append(d.Notes, lines...)
	}
}

// row adds a table row whose cells format separates with tabs.
func (d *Doc) row(format string, args ...any) {
	d.Table = append(d.Table, strings.Split(fmt.Sprintf(format, args...), "\t"))
}
