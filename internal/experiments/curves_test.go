package experiments

import (
	"bytes"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"dragonfly/internal/core"
)

// runTable runs the named experiments at Quick scale on a one-slot pool
// with a fresh curve table, and returns the rendered text, the progress
// log, the number of distinct curves the table ran and their total
// number of load points.
func runTable(t *testing.T, names ...string) (text, log string, curves, points int) {
	t.Helper()
	var out, logBuf bytes.Buffer
	r := Runner{Scale: Quick(), Jobs: 1, Log: &logBuf}
	s := r.scaled()
	r.Scale = s
	if err := r.RunText(&out, names); err != nil {
		t.Fatalf("%v: %v", names, err)
	}
	s.curves.Range(func(_, run any) bool {
		pts, err := run.(func() ([]core.SweepPoint, error))()
		if err != nil {
			t.Errorf("%v: curve failed: %v", names, err)
		}
		curves++
		points += len(pts)
		return true
	})
	return out.String(), logBuf.String(), curves, points
}

// TestCurvesRunOnce holds the routing figures to one run per distinct
// curve: run together, Figures 8, 10, 11, 14 and 16 declare 35 curves
// of which 25 are distinct, every load point the engine runs belongs to
// one of those 25, and the report is the five figures' separate reports
// concatenated.
func TestCurvesRunOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	names := []string{"fig8", "fig10", "fig11", "fig14", "fig16"}
	var want string
	declared := 0
	for _, name := range names {
		text, _, curves, _ := runTable(t, name)
		want += text
		declared += curves
	}
	text, log, distinct, points := runTable(t, names...)
	if declared != 35 || distinct != 25 {
		t.Errorf("%d curves declared, %d distinct; want 35 and 25", declared, distinct)
	}
	// On a one-slot pool a sweep runs one load at a time, so it runs no
	// point past its stop rule and each engine run is a table point.
	if runs := len(regexp.MustCompile(`(?m) load \S+ done$`).FindAllString(log, -1)); runs != points {
		t.Errorf("engine ran %d load points, the table holds %d", runs, points)
	}
	if text != want {
		t.Errorf("joint report differs from the five separate reports concatenated")
	}
}

// TestFig11ReadsCurvePrefix: Figure 11 reads the UGAL-L WC curve up to
// its first saturated point, where the paper's plot stops, while Figure
// 8(b) plots the same curve to two points past saturation. A 20-cycle
// drain makes the 72-node machine saturate inside the WC load range, so
// the cut falls before the curve's end.
func TestFig11ReadsCurvePrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	s := Quick()
	s.Drain = 20
	s.curves = new(sync.Map)
	fig8, err := Fig08(s)
	if err != nil {
		t.Fatalf("Fig08: %v", err)
	}
	fig11, err := Fig11(s)
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	var ugall Series
	for _, ser := range fig8[1].Series {
		if ser.Name == "UGAL-L" {
			ugall = ser
		}
	}
	cut := len(ugall.X)
	for i, sat := range ugall.Saturated {
		if sat {
			cut = i + 1
			break
		}
	}
	if cut >= len(ugall.X) {
		t.Fatalf("Fig 8(b) UGAL-L saturates %v: want a saturated point before the last", ugall.Saturated)
	}
	avg := fig11[0].Series[2]
	if !reflect.DeepEqual(avg.X, ugall.X[:cut]) || !reflect.DeepEqual(avg.Y, ugall.Y[:cut]) || !reflect.DeepEqual(avg.Saturated, ugall.Saturated[:cut]) {
		t.Errorf("Fig 11 (buffers=16) average %v %v, want Fig 8(b) UGAL-L up to its first saturated point %v %v",
			avg.X, avg.Y, ugall.X[:cut], ugall.Y[:cut])
	}
}
