// Regression test for the pickInterGroup divide-by-zero: on a topology
// with a single group, VAL and every UGAL variant used to panic with a
// mod-by-zero when drawing the Valiant intermediate group. They must
// instead fall back to minimal routing. The test lives in an external
// package so it can drive the full stack through core.
package routing_test

import (
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/sim"
)

func TestSingleGroupFallsBackToMinimal(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Groups: 1})
	if err != nil {
		t.Fatalf("1-group system: %v", err)
	}
	rc := sim.RunConfig{WarmupCycles: 200, MeasureCycles: 200, DrainCycles: 5000}
	for _, alg := range []core.Algorithm{core.AlgVAL, core.AlgUGALL, core.AlgUGALG, core.AlgUGALLVC, core.AlgUGALLVCH, core.AlgUGALLCR} {
		res, err := sys.RunW(alg, core.Workload{Traffic: "ur"}, 0.3, rc)
		if err != nil {
			t.Errorf("%s on 1-group dragonfly: %v", alg, err)
			continue
		}
		if res.Latency.Count() == 0 {
			t.Errorf("%s on 1-group dragonfly measured no packets", alg)
		}
		// With no other group to bounce through, every packet must have
		// been routed minimally.
		if res.MinimalFraction != 1 {
			t.Errorf("%s on 1-group dragonfly routed %.2f%% minimally, want 100%%",
				alg, 100*res.MinimalFraction)
		}
	}
}

func TestSingleGroupWorstCaseTraffic(t *testing.T) {
	// The WC pattern degenerates to intra-group random traffic when
	// g = 1; it must still simulate without panicking under VAL.
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.RunConfig{WarmupCycles: 200, MeasureCycles: 200, DrainCycles: 5000}
	if _, err := sys.RunW(core.AlgVAL, core.Workload{Traffic: "wc"}, 0.2, rc); err != nil {
		t.Errorf("VAL/WC on 1-group dragonfly: %v", err)
	}
}
