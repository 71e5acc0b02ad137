// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a named runner producing a text table
// with the same rows/series the paper reports; cmd/experiments and the
// repository benchmarks are thin wrappers around Run.
//
// Absolute numbers differ from the paper — the datasets are synthetic
// equivalents and the implementation is Go rather than Python — but each
// runner reproduces the paper's comparisons and growth shapes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Config controls workload sizes. The zero value is not usable; start from
// Default or Quick.
type Config struct {
	// Scale divides the paper-scale synthetic workload sizes; 1 reproduces
	// the paper's sizes, larger values shrink everything proportionally.
	Scale int
	// WebSets is the simulated web-tables corpus size.
	WebSets int
	// WebSeeds is how many 2-entity seed sub-collections to evaluate.
	WebSeeds int
	// WebMinSub is the minimum sub-collection size for a seed query (the
	// paper uses 100).
	WebMinSub int
	// BaseballRows sizes the People table (paper: 20185).
	BaseballRows int
	// SpeedupCapSets bounds sub-collection size in the gain-k comparisons
	// (the unpruned baseline is exponential in k).
	SpeedupCapSets int
	// Out, when non-nil, receives progress lines.
	Out io.Writer
	// Seed namespaces all random choices.
	Seed uint64
}

// Default returns a configuration sized for the benchmark harness: minutes
// total, paper-shaped results.
func Default() Config {
	return Config{
		Scale:          10,
		WebSets:        40000,
		WebSeeds:       30,
		WebMinSub:      100,
		BaseballRows:   20185,
		SpeedupCapSets: 300,
		Seed:           1,
	}
}

// Quick returns a configuration small enough for go test.
func Quick() Config {
	return Config{
		Scale:          100,
		WebSets:        3000,
		WebSeeds:       6,
		WebMinSub:      30,
		BaseballRows:   2500,
		SpeedupCapSets: 60,
		Seed:           1,
	}
}

// Full returns the paper-scale configuration (hours of runtime for the
// largest sweeps).
func Full() Config {
	cfg := Default()
	cfg.Scale = 1
	cfg.WebSets = 200000
	cfg.WebSeeds = 200
	return cfg
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format+"\n", args...)
	}
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Result is a finished experiment.
type Result struct {
	ID    string
	Table Table
	// Notes records caveats (substitutions, caps hit, skipped settings).
	Notes []string
}

// Runner regenerates one paper artifact.
type Runner func(cfg Config) (*Result, error)

var registry = map[string]Runner{
	"table1a": Table1a,
	"table1b": Table1b,
	"table1c": Table1c,
	"table2":  Table2,
	"table3":  Table3,
	"table4":  Table4,
	"fig3":    Fig3,
	"fig4a":   Fig4a,
	"fig4b":   Fig4b,
	"fig5":    Fig5,
	"fig6":    Fig6,
	"fig7":    Fig7,
	"fig8a":   Fig8a,
	"fig8b":   Fig8b,
	"sec532":  Sec532,
	"sec533":  Sec533,
}

// IDs returns the experiment identifiers in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
			id, strings.Join(IDs(), ", "))
	}
	return r(cfg)
}

// timeIt measures fn.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
