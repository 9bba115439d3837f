package core

import (
	"testing"

	"dragonfly/internal/sim"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cfg := sys.cfg
	if cfg.P != 4 || cfg.A != 8 || cfg.H != 4 {
		t.Errorf("default parameters %+v, want the paper's 1K config", cfg)
	}
	if cfg.BufDepth != 16 || cfg.Seed != 1 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if sys.Topo.Nodes() != 1056 {
		t.Errorf("default Nodes = %d, want 1056", sys.Topo.Nodes())
	}
}

func TestNewSystemInvalid(t *testing.T) {
	if _, err := NewSystem(SystemConfig{P: 1, A: 1, H: 1, Groups: 99}); err == nil {
		t.Error("invalid group count accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(string(a))
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestSimConfigEnablesCreditDelayForCR(t *testing.T) {
	sys, err := NewSystem(SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.SimConfig(AlgUGALLCR).DelayCredits {
		t.Error("UGAL-L_CR must enable DelayCredits")
	}
	for _, a := range []Algorithm{AlgMIN, AlgVAL, AlgUGALL, AlgUGALG, AlgUGALLVC, AlgUGALLVCH} {
		if sys.SimConfig(a).DelayCredits {
			t.Errorf("%s must not enable DelayCredits", a)
		}
	}
}

func TestRoutingAndTrafficConstruction(t *testing.T) {
	sys, err := NewSystem(SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Algorithms() {
		rt, err := sys.Routing(a)
		if err != nil {
			t.Errorf("Routing(%s): %v", a, err)
			continue
		}
		if rt.Name() != string(a) {
			t.Errorf("Routing(%s).Name() = %s", a, rt.Name())
		}
	}
	for _, fam := range []string{"ur", "wc", "bitcomp", "tornado", "perm"} {
		if _, err := sys.TrafficFor(Workload{Traffic: fam}); err != nil {
			t.Errorf("TrafficFor(%s): %v", fam, err)
		}
	}
	if _, err := sys.Routing("bogus"); err == nil {
		t.Error("bogus routing accepted")
	}
	if _, err := sys.TrafficFor(Workload{Traffic: "bogus"}); err == nil {
		t.Error("bogus traffic accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	sys, err := NewSystem(SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.RunConfig{WarmupCycles: 300, MeasureCycles: 300, DrainCycles: 10000}
	res, err := sys.RunW(AlgUGALLVCH, Workload{Traffic: "ur"}, 0.2, rc)
	if err != nil {
		t.Fatalf("RunW: %v", err)
	}
	if res.Latency.Count() == 0 || res.Accepted < 0.15 {
		t.Errorf("suspicious result: %+v", res.Summary)
	}
}

func TestSweepStopsAfterSaturation(t *testing.T) {
	sys, err := NewSystem(SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.RunConfig{WarmupCycles: 300, MeasureCycles: 300, DrainCycles: 1500}
	// MIN on WC saturates at 1/8: a sweep over many loads must stop early.
	loads := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	pts, err := sys.SweepW(AlgMIN, Workload{Traffic: "wc"}, loads, rc, 1)
	if err != nil {
		t.Fatalf("SweepW: %v", err)
	}
	if len(pts) == len(loads) {
		t.Error("sweep did not stop after saturation")
	}
	if !pts[len(pts)-1].Result.Saturated {
		t.Error("last sweep point should be saturated")
	}
}

func TestSweepAllPointsWhenUnderLoad(t *testing.T) {
	sys, err := NewSystem(SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.RunConfig{WarmupCycles: 300, MeasureCycles: 300, DrainCycles: 10000}
	loads := []float64{0.05, 0.1, 0.15}
	pts, err := sys.SweepW(AlgUGALG, Workload{Traffic: "ur"}, loads, rc, 2)
	if err != nil {
		t.Fatalf("SweepW: %v", err)
	}
	if len(pts) != len(loads) {
		t.Errorf("sweep returned %d points, want %d", len(pts), len(loads))
	}
}
