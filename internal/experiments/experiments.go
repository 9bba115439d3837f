// Package experiments regenerates every table and figure of the paper's
// evaluation: each Fig/Table function reproduces the corresponding
// exhibit as structured series or rows, rendered in plain text the way
// the paper reports them. The cmd/dfly-experiments tool and the
// repository's benchmark harness are thin wrappers around this package.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"dragonfly/internal/parallel"
)

// Scale selects simulation fidelity: the paper-scale runs use the 1K
// evaluation network with full warm-up, Quick shrinks everything for
// tests and smoke runs.
type Scale struct {
	// Warmup, Measure, Drain are the phase lengths in cycles.
	Warmup, Measure, Drain int
	// StallLimit is the deadlock-detector horizon.
	StallLimit int64
	// Coarse halves the number of load points per sweep.
	Coarse bool
	// Small switches the simulated machine from the paper's 1K-node
	// evaluation network (p=h=4, a=8) to the 72-node example (p=h=2,
	// a=4).
	Small bool

	// pool runs the scale's simulations; nil means the process-wide
	// shared pool. Runner.scaled sets it from the Runner's Jobs field so
	// one pool bounds a whole experiment run.
	pool *parallel.Pool
	// curves is the curve table Runner.scaled sets next to the pool:
	// each curve's sync.OnceValues of its points, shared by every
	// exhibit of one run. nil runs every curve afresh.
	curves *sync.Map
}

// Pool returns the worker pool this scale's simulations run on,
// defaulting to the process-wide shared pool.
func (s Scale) Pool() *parallel.Pool {
	if s.pool != nil {
		return s.pool
	}
	return parallel.Default()
}

// Paper is the evaluation fidelity of Section 4.2.
func Paper() Scale {
	return Scale{Warmup: 3000, Measure: 2000, Drain: 20000, StallLimit: 10000}
}

// Quick is a reduced fidelity for tests and smoke runs.
func Quick() Scale {
	return Scale{Warmup: 400, Measure: 400, Drain: 6000, StallLimit: 5000, Coarse: true, Small: true}
}

// Series is one curve of a figure. The JSON tags are part of the
// versioned report schema (obs.SchemaVersion) emitted by WriteJSON.
type Series struct {
	// Name labels the curve (routing algorithm, buffer depth, ...).
	Name string `json:"name"`
	// X and Y are the data points.
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
	// Saturated marks points where the network could not sustain the
	// offered load; their latency values are drain-censored.
	Saturated []bool `json:"saturated,omitempty"`
}

// Figure is a reproduced plot: a set of series over a shared x-axis
// meaning.
type Figure struct {
	// ID is the paper exhibit ("Figure 8(a)").
	ID string `json:"id"`
	// Title describes the experiment.
	Title string `json:"title"`
	// XLabel and YLabel name the axes.
	XLabel string `json:"x_label"`
	YLabel string `json:"y_label"`
	// Series holds the curves.
	Series []Series `json:"series"`
	// Notes records deviations and observations for EXPERIMENTS.md.
	Notes []string `json:"notes,omitempty"`
}

// Render writes the figure as an aligned text table: the union of x
// values in the first column, one column per series.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", f.ID, f.Title)
	// Merge the series' x values and sort the union numerically: series
	// saturate (and stop) at different loads, so first-series order would
	// emit the later series' extra points out of order.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	fmt.Fprintf(w, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %16s", s.Name)
	}
	fmt.Fprintf(w, "   (%s)\n", f.YLabel)
	for _, x := range xs {
		fmt.Fprintf(w, "%-12.4g", x)
		for _, s := range f.Series {
			cell := strings.Repeat(" ", 16)
			for i, sx := range s.X {
				if sx == x {
					mark := ""
					if i < len(s.Saturated) && s.Saturated[i] {
						mark = "*"
					}
					cell = fmt.Sprintf("%15.4g%1s", s.Y[i], mark)
					break
				}
			}
			fmt.Fprintf(w, " %s", cell)
		}
		fmt.Fprintln(w)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Table is a reproduced table exhibit.
type Table struct {
	// ID is the paper exhibit ("Table 1").
	ID string `json:"id"`
	// Title describes the contents.
	Title string `json:"title"`
	// Header and Rows hold the cells.
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Notes records deviations and observations.
	Notes []string `json:"notes,omitempty"`
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// loads builds a load sweep [from, to] with the given step, honouring
// Scale.Coarse by doubling the step.
func (s Scale) loads(from, to, step float64) []float64 {
	if s.Coarse {
		step *= 2
	}
	var out []float64
	for x := from; x <= to+1e-9; x += step {
		out = append(out, round3(x))
	}
	return out
}

func round3(x float64) float64 {
	return float64(int(x*1000+0.5)) / 1000
}
