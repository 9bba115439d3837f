package core_test

// Run must flush attached collectors when it finishes, so the packets
// ejected after the last full window boundary land in a final short
// window instead of silently vanishing from the series — the drain
// phase practically never ends on a Width multiple.

import (
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/metrics"
	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
)

func TestRunFlushesTrailingWindow(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	// The flush must reach a Windows attached alone and one stacked with
	// a Tracer under metrics.Multi, which must then fill as well.
	for _, withTrace := range []bool{false, true} {
		win := obs.NewWindows(obs.WindowsConfig{Width: 1000, Terminals: sys.Topo.Nodes()})
		var tr *obs.Tracer
		var c metrics.Collector = win
		if withTrace {
			tr = obs.NewTracer(8, 1, 1024)
			c = metrics.Multi{win, tr}
		}
		// Warm-up + measurement is exactly one window; the drain tail past
		// cycle 1000 only reaches the series through the finish flush.
		rc := sim.RunConfig{WarmupCycles: 500, MeasureCycles: 500, DrainCycles: 20000}
		res, err := sys.RunW(core.AlgUGALLVCH, core.Workload{Traffic: "ur"}, 0.3, rc, core.WithCollector(c))
		if err != nil {
			t.Fatalf("trace %t: RunW: %v", withTrace, err)
		}
		if res.Cycles <= 1000 {
			t.Fatalf("trace %t: run finished in %d cycles; the scenario needs a drain tail past the window boundary", withTrace, res.Cycles)
		}
		wins := win.Windows()
		if len(wins) < 2 {
			t.Fatalf("trace %t: %d windows after a %d-cycle run at width 1000, want the trailing partial flushed", withTrace, len(wins), res.Cycles)
		}
		tail := wins[len(wins)-1]
		if tail.End != res.Cycles {
			t.Errorf("trace %t: trailing window ends at %d, want the run's final cycle %d", withTrace, tail.End, res.Cycles)
		}
		if tail.End-tail.Start >= 1000 {
			t.Errorf("trace %t: trailing window spans (%d,%d], want a partial shorter than the width", withTrace, tail.Start, tail.End)
		}
		if tail.Ejected == 0 {
			t.Errorf("trace %t: trailing window ejected nothing; drain-phase ejections were lost", withTrace)
		}
		if tr != nil && len(tr.Records()) == 0 {
			t.Errorf("trace %t: the tracer stacked with the windows recorded no hops", withTrace)
		}
		// A second explicit flush at the same cycle must not add an empty
		// window: callers that flushed by hand before the auto-flush landed
		// keep their series unchanged.
		win.Flush(res.Cycles)
		if got := len(win.Windows()); got != len(wins) {
			t.Errorf("trace %t: explicit Flush after the finish flush grew the series to %d windows, want %d", withTrace, got, len(wins))
		}
	}
}
