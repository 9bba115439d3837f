package core_test

// Run must flush attached collectors when it finishes, so the packets
// ejected after the last full window boundary land in a final short
// window instead of silently vanishing from the series — the drain
// phase practically never ends on a Width multiple.

import (
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
)

func TestRunFlushesTrailingWindow(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	win := obs.NewWindows(obs.WindowsConfig{Width: 1000, Terminals: sys.Topo.Nodes()})
	// Warm-up + measurement is exactly one window; the drain tail past
	// cycle 1000 only reaches the series through the finish flush.
	rc := sim.RunConfig{WarmupCycles: 500, MeasureCycles: 500, DrainCycles: 20000}
	res, err := sys.RunW(core.AlgUGALLVCH, core.Workload{Traffic: "ur"}, 0.3, rc, core.WithCollector(win))
	if err != nil {
		t.Fatalf("RunW: %v", err)
	}
	if res.Cycles <= 1000 {
		t.Fatalf("run finished in %d cycles; the scenario needs a drain tail past the window boundary", res.Cycles)
	}
	wins := win.Windows()
	if len(wins) < 2 {
		t.Fatalf("%d windows after a %d-cycle run at width 1000, want the trailing partial flushed", len(wins), res.Cycles)
	}
	tail := wins[len(wins)-1]
	if tail.End != res.Cycles {
		t.Errorf("trailing window ends at %d, want the run's final cycle %d", tail.End, res.Cycles)
	}
	if tail.End-tail.Start >= 1000 {
		t.Errorf("trailing window spans (%d,%d], want a partial shorter than the width", tail.Start, tail.End)
	}
	if tail.Ejected == 0 {
		t.Errorf("trailing window ejected nothing; drain-phase ejections were lost")
	}
	// A second explicit flush at the same cycle must not add an empty
	// window: callers that flushed by hand before the auto-flush landed
	// keep their series unchanged.
	win.Flush(res.Cycles)
	if got := len(win.Windows()); got != len(wins) {
		t.Errorf("explicit Flush after the finish flush grew the series to %d windows, want %d", got, len(wins))
	}
}
