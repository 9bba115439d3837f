package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestAnalyticExhibits(t *testing.T) {
	fig1 := Fig01()
	if len(fig1.Series) == 0 || len(fig1.Series[0].X) == 0 {
		t.Error("Fig01 empty")
	}
	// Radix must be monotone in N.
	ys := fig1.Series[0].Y
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Error("Fig01 radix not monotone")
		}
	}

	t1 := Table01()
	if len(t1.Rows) != 3 {
		t.Errorf("Table01 rows = %d, want 3", len(t1.Rows))
	}

	fig2 := Fig02()
	if len(fig2.Series) != 3 {
		t.Errorf("Fig02 series = %d, want 3", len(fig2.Series))
	}
	// At 100m the optical model must be cheaper.
	elec, opt := fig2.Series[0], fig2.Series[1]
	if opt.Y[len(opt.Y)-1] >= elec.Y[len(elec.Y)-1] {
		t.Error("Fig02: optical should win at 100m")
	}
	if opt.Y[0] <= elec.Y[0] {
		t.Error("Fig02: electrical should win at 0m")
	}

	fig4 := Fig04()
	df := fig4.Series[0]
	flat := fig4.Series[1]
	// The dragonfly must dominate the flat network by orders of
	// magnitude at high radix.
	last := len(df.Y) - 1
	if df.Y[last] < 100*flat.Y[last] {
		t.Errorf("Fig04: dragonfly %v vs flat %v, want >100x", df.Y[last], flat.Y[last])
	}

	fig6 := Fig06()
	if len(fig6.Rows) != 3 {
		t.Errorf("Fig06 rows = %d, want 3", len(fig6.Rows))
	}

	t2 := Table02()
	if len(t2.Rows) != 2 {
		t.Errorf("Table02 rows = %d", len(t2.Rows))
	}
}

func TestCostExhibits(t *testing.T) {
	fig18, err := Fig18()
	if err != nil {
		t.Fatalf("Fig18: %v", err)
	}
	if len(fig18.Rows) != 2 {
		t.Errorf("Fig18 rows = %d", len(fig18.Rows))
	}
	fig19, err := Fig19()
	if err != nil {
		t.Fatalf("Fig19: %v", err)
	}
	if len(fig19.Series) != 4 {
		t.Errorf("Fig19 series = %d, want 4", len(fig19.Series))
	}
	// At the largest size the dragonfly must be the cheapest.
	n := len(fig19.Series[0].Y) - 1
	dfy := fig19.Series[0].Y[n]
	for _, s := range fig19.Series[1:] {
		if s.Y[len(s.Y)-1] < dfy {
			t.Errorf("Fig19: %s cheaper than dragonfly at max size", s.Name)
		}
	}
}

func TestQuickSimulationExhibits(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	s := Quick()
	figs8, err := Fig08(s)
	if err != nil {
		t.Fatalf("Fig08: %v", err)
	}
	if len(figs8) != 2 {
		t.Fatalf("Fig08 produced %d figures", len(figs8))
	}
	// Figure 8(b): MIN's worst-case curve must saturate early.
	var minSer *Series
	for i := range figs8[1].Series {
		if figs8[1].Series[i].Name == "MIN" {
			minSer = &figs8[1].Series[i]
		}
	}
	if minSer == nil {
		t.Fatal("MIN series missing")
	}
	sawSat := false
	for _, sat := range minSer.Saturated {
		sawSat = sawSat || sat
	}
	if !sawSat {
		t.Error("Fig 8(b): MIN never saturated on WC traffic")
	}

	fig9, err := Fig09(s)
	if err != nil {
		t.Fatalf("Fig09: %v", err)
	}
	// UGAL-G must load the minimal channel (slot 0) hardest.
	for _, ser := range fig9.Series {
		if ser.Name != "UGAL-G" {
			continue
		}
		for i := 1; i < len(ser.Y); i++ {
			if ser.Y[i] > ser.Y[0]+0.05 {
				t.Errorf("Fig09 UGAL-G: channel %d utilisation %.2f exceeds minimal channel %.2f", i, ser.Y[i], ser.Y[0])
			}
		}
	}

	fig12, err := Fig12(s)
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if len(fig12) != 2 {
		t.Fatalf("Fig12 produced %d figures", len(fig12))
	}
}

func TestRunnerUnknown(t *testing.T) {
	r := Runner{Scale: Quick()}
	var buf bytes.Buffer
	err := r.RunText(&buf, []string{"fig1", "nope"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if want := `experiments: unknown experiment "nope" (known: [`; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q, want prefix %q", err, want)
	}
	if buf.Len() != 0 {
		t.Errorf("rendered %d bytes before rejecting the unknown name", buf.Len())
	}
}

func TestRunnerAnalyticOnly(t *testing.T) {
	r := Runner{Scale: Quick()}
	for _, name := range []string{"fig1", "table1", "fig2", "fig4", "fig6", "fig18", "fig19", "table2"} {
		var buf bytes.Buffer
		if err := r.RunText(&buf, []string{name}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s rendered nothing", name)
		}
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		ID: "Figure X", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}, Saturated: []bool{false, true}},
			{Name: "b", X: []float64{1}, Y: []float64{11}},
		},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	f.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure X", "20*", "note: hello", "a", "b"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestFigureRenderSortsXUnion(t *testing.T) {
	// Series that saturate at different loads contribute different x
	// sets; the merged axis must come out numerically sorted no matter
	// the series order.
	f := &Figure{
		ID: "Figure S", Title: "sort", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "late", X: []float64{0.3, 0.5}, Y: []float64{3, 5}},
			{Name: "early", X: []float64{0.1, 0.2}, Y: []float64{1, 2}},
		},
	}
	var buf bytes.Buffer
	f.Render(&buf)
	var xs []float64
	for _, line := range strings.Split(buf.String(), "\n") {
		var x float64
		if _, err := fmt.Sscanf(line, "%g", &x); err == nil {
			xs = append(xs, x)
		}
	}
	if len(xs) != 4 {
		t.Fatalf("expected 4 data rows, got %v in:\n%s", xs, buf.String())
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			t.Fatalf("x axis not sorted: %v", xs)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID: "Table X", Title: "test",
		Header: []string{"col1", "c2"},
		Rows:   [][]string{{"a", "bbb"}},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	if !strings.Contains(buf.String(), "col1") || !strings.Contains(buf.String(), "bbb") {
		t.Errorf("table render broken:\n%s", buf.String())
	}
}

func TestScaleLoads(t *testing.T) {
	s := Scale{}
	ls := s.loads(0.1, 0.5, 0.1)
	if len(ls) != 5 {
		t.Errorf("loads = %v, want 5 points", ls)
	}
	s.Coarse = true
	if got := len(s.loads(0.1, 0.5, 0.1)); got != 3 {
		t.Errorf("coarse loads = %d points, want 3", got)
	}
}

func TestMultiTenantExhibit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	figs, err := MultiTenant(Quick())
	if err != nil {
		t.Fatalf("MultiTenant: %v", err)
	}
	if len(figs) != 2 {
		t.Fatalf("MultiTenant produced %d figures, want 2", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 3 {
			t.Fatalf("%s has %d series, want 3 (alone, confined, spraying)", f.ID, len(f.Series))
		}
		for _, ser := range f.Series {
			if len(ser.X) == 0 || len(ser.X) != len(ser.Y) {
				t.Fatalf("%s series %s malformed: %d x, %d y", f.ID, ser.Name, len(ser.X), len(ser.Y))
			}
		}
	}
	// The baseline must carry real traffic, and sharing the machine with
	// a machine-wide-spraying bursty tenant must not *improve* latency.
	var b bytes.Buffer
	figs[0].Render(&b)
	if !strings.Contains(b.String(), "packet-weighted solo mix") {
		t.Error("latency figure notes missing the interference accounting")
	}
	for _, ser := range figs[1].Series {
		sum := 0.0
		for _, y := range ser.Y {
			sum += y
		}
		if sum <= 0 {
			t.Errorf("throughput series %q accepted nothing", ser.Name)
		}
	}
}

func TestTransientExhibit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	s := Quick()
	figs, err := Transient(s)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	if len(figs) != 2 {
		t.Fatalf("Transient produced %d figures, want 2", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 2 {
			t.Fatalf("%s has %d series, want 2", f.ID, len(f.Series))
		}
		for _, ser := range f.Series {
			if len(ser.X) == 0 || len(ser.X) != len(ser.Y) {
				t.Fatalf("%s series %s malformed: %d x, %d y", f.ID, ser.Name, len(ser.X), len(ser.Y))
			}
		}
	}
	// Acceptance: UGAL-L recovers to at least 95% of its pre-fault
	// accepted rate after the repair.
	fail, recov, end := s.TransientCycles()
	for _, ser := range figs[0].Series {
		if ser.Name != "UGAL-L" {
			continue
		}
		pre, during, post := transientPhaseMeans(ser.X, ser.Y, fail, recov, end)
		if pre <= 0 {
			t.Fatalf("UGAL-L pre-fault throughput %.4f, expected > 0", pre)
		}
		if post < 0.95*pre {
			t.Errorf("UGAL-L recovered to %.4f of pre-fault %.4f (%.0f%%), want >= 95%%", post, pre, 100*post/pre)
		}
		t.Logf("UGAL-L: pre %.4f during %.4f post %.4f (%.1f%% recovery)", pre, during, post, 100*post/pre)
	}
	var b bytes.Buffer
	figs[0].Render(&b)
	if !strings.Contains(b.String(), "killed in flight") {
		t.Error("throughput figure notes missing the fault accounting")
	}
}
