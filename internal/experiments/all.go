package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dragonfly/internal/parallel"
)

// Exhibit is anything the harness can render.
type Exhibit interface {
	Render(w io.Writer)
}

// Runner executes experiments by paper exhibit id.
type Runner struct {
	// Scale controls simulation fidelity.
	Scale Scale
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Jobs caps the number of concurrently running simulations
	// (0 = GOMAXPROCS). Results are identical for every value; only
	// wall-clock time changes.
	Jobs int
}

// exhibits is the harness's table of experiments, in paper order: each
// id with the function that runs it at a given scale.
var exhibits = []struct {
	name string
	run  func(Scale) ([]Exhibit, error)
}{
	{"fig1", fixed(Fig01)},
	{"table1", fixed(Table01)},
	{"fig2", fixed(Fig02)},
	{"fig4", fixed(Fig04)},
	{"fig6", fixed(Fig06)},
	{"fig8", many(Fig08)},
	{"fig9", one(Fig09)},
	{"fig10", many(Fig10)},
	{"fig11", many(Fig11)},
	{"fig12", many(Fig12)},
	{"fig14", one(Fig14)},
	{"fig16", many(Fig16)},
	{"fig18", one(func(Scale) (*Table, error) { return Fig18() })},
	{"fig19", one(func(Scale) (*Figure, error) { return Fig19() })},
	{"table2", fixed(Table02)},
	{"resilience", many(Resilience)},
	{"transient", many(Transient)},
	{"topozoo", one(TopoZoo)},
	{"multitenant", many(MultiTenant)},
}

// fixed adapts an exhibit that needs no simulation.
func fixed[E Exhibit](f func() E) func(Scale) ([]Exhibit, error) {
	return func(Scale) ([]Exhibit, error) { return []Exhibit{f()}, nil }
}

// one adapts an experiment that produces a single exhibit.
func one[E Exhibit](f func(Scale) (E, error)) func(Scale) ([]Exhibit, error) {
	return func(s Scale) ([]Exhibit, error) {
		e, err := f(s)
		if err != nil {
			return nil, err
		}
		return []Exhibit{e}, nil
	}
}

// many adapts an experiment that produces several figures.
func many(f func(Scale) ([]*Figure, error)) func(Scale) ([]Exhibit, error) {
	return func(s Scale) ([]Exhibit, error) {
		fs, err := f(s)
		if err != nil {
			return nil, err
		}
		out := make([]Exhibit, len(fs))
		for i, f := range fs {
			out[i] = f
		}
		return out, nil
	}
}

// Names lists every experiment id in paper order.
func Names() []string {
	names := make([]string, len(exhibits))
	for i, e := range exhibits {
		names[i] = e.name
	}
	return names
}

// scaled returns the runner's scale bound to a worker pool and a curve
// table: one pool per Runner invocation, shared by every exhibit, series
// and load point underneath, so Jobs bounds the whole run, and one
// table, so a curve several figures plot runs once. A scale that is
// already bound is returned as is.
func (r Runner) scaled() Scale {
	s := r.Scale
	if s.pool != nil {
		return s
	}
	s.pool = parallel.New(r.Jobs)
	if r.Log != nil {
		s.pool.SetLog(r.Log)
	}
	s.curves = new(sync.Map)
	return s
}

// collect executes the named experiments concurrently on the runner's
// worker pool (at most Jobs simulations at once across all of them) and
// returns their exhibits grouped per name, in the given order. An
// unknown name is rejected before anything runs. When an experiment
// fails, collect returns the exhibits of the experiments before it in
// the list, and the failure.
func (r Runner) collect(names []string) ([][]Exhibit, error) {
	runs := make([]func(Scale) ([]Exhibit, error), len(names))
	for i, name := range names {
		for _, e := range exhibits {
			if e.name == name {
				runs[i] = e.run
			}
		}
		if runs[i] == nil {
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, Names())
		}
	}
	s := r.scaled()
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		if r.Log == nil {
			return
		}
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(r.Log, format, args...)
	}
	logf("running %d experiments on %d workers\n", len(names), s.Pool().Jobs())

	out := make([][]Exhibit, len(names))
	errs := make([]error, len(names))
	s.Pool().ForEach(len(names), func(i int) error {
		start := time.Now()
		out[i], errs[i] = runs[i](s)
		logf("%s done in %.1fs\n", names[i], time.Since(start).Seconds())
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return out[:i], fmt.Errorf("experiments: %s: %w", names[i], err)
		}
	}
	return out, nil
}

// RunText executes the named experiments (every experiment when names
// is empty) and renders their exhibits to w. The experiments run
// concurrently (see collect); the report is rendered strictly in the
// given order once everything has finished, so the output is
// byte-identical to a serial run. Like the serial runner, exhibits
// preceding the first failure are still rendered before the error is
// returned.
func (r Runner) RunText(w io.Writer, names []string) error {
	if len(names) == 0 {
		names = Names()
	}
	exhibits, err := r.collect(names)
	for _, ex := range exhibits {
		for _, e := range ex {
			e.Render(w)
		}
	}
	return err
}

// RunJSON executes the named experiments (every experiment when names
// is empty) and writes one machine-readable report to w. Unlike
// RunText, nothing is written on error: a JSON consumer either gets a
// well-formed report or none.
func (r Runner) RunJSON(w io.Writer, names []string) error {
	if len(names) == 0 {
		names = Names()
	}
	exhibits, err := r.collect(names)
	if err != nil {
		return err
	}
	return WriteJSON(w, names, exhibits)
}
