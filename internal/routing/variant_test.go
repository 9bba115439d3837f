package routing

import (
	"context"
	"testing"

	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// The Figure 6(b) variant — flattened-butterfly intra-group networks —
// must work end-to-end with every routing algorithm through the same
// path table.

func fbTopo(t *testing.T) *topology.DragonflyFB {
	t.Helper()
	d, err := topology.NewDragonflyFB(2, []int{2, 2, 2}, 2, 0)
	if err != nil {
		t.Fatalf("NewDragonflyFB: %v", err)
	}
	return d
}

func TestDragonflyFBEndToEnd(t *testing.T) {
	d := fbTopo(t)
	for _, mk := range []func() sim.Routing{
		func() sim.Routing { return NewMIN(d) },
		func() sim.Routing { return NewVAL(d) },
		func() sim.Routing { return NewUGAL(d, UGALLocal) },
		func() sim.Routing { return NewUGAL(d, UGALGlobal) },
		func() sim.Routing { return NewUGAL(d, UGALLocalVCH) },
		func() sim.Routing { return NewUGALCR(d) },
	} {
		alg := mk()
		cfg := testCfg()
		if u, ok := alg.(*UGAL); ok && u.CreditRT {
			cfg.DelayCredits = true
		}
		net, err := sim.New(d, cfg, alg, traffic.NewUniformRandom(d.Nodes()))
		if err != nil {
			t.Fatalf("%s: sim.New: %v", alg.Name(), err)
		}
		res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.15, WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 15000, StallLimit: 5000})
		if err != nil {
			t.Fatalf("%s: Run: %v", alg.Name(), err)
		}
		if res.Latency.Count() == 0 {
			t.Errorf("%s: no packets delivered on FB-group dragonfly", alg.Name())
		}
		if res.DrainTimeout {
			t.Errorf("%s: drain timeout at light load", alg.Name())
		}
	}
}

func TestDragonflyFBHopBound(t *testing.T) {
	// Minimal routing on the 2x2x2-group variant: at most
	// 3 (dims) + 1 (global) + 3 (dims) = 7 channels.
	d := fbTopo(t)
	net, err := sim.New(d, testCfg(), NewMIN(d), traffic.NewUniformRandom(d.Nodes()))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	worst := 0
	watchEjections(net, func(_ metrics.Eject, hops int) {
		worst = max(worst, hops)
	})
	net.SetLoad(0.2)
	for i := 0; i < 1500; i++ {
		net.Step()
	}
	if worst == 0 {
		t.Fatal("no packets delivered")
	}
	if worst > 7 {
		t.Errorf("minimal packet took %d hops, want <= 7", worst)
	}
}

func TestDragonflyFBWorstCaseAdaptivity(t *testing.T) {
	// The WC pattern generalises: UGAL must beat MIN's single-channel
	// bottleneck on the variant too.
	d := fbTopo(t)
	run := func(alg sim.Routing) float64 {
		net, err := sim.New(d, testCfg(), alg, traffic.NewWorstCase(d))
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.25, WarmupCycles: 800, MeasureCycles: 800, DrainCycles: 4000, StallLimit: 5000})
		if err != nil {
			t.Fatalf("%s: Run: %v", alg.Name(), err)
		}
		return res.Accepted
	}
	minAcc := run(NewMIN(d))
	ugalAcc := run(NewUGAL(d, UGALLocalVCH))
	if ugalAcc < 2*minAcc {
		t.Errorf("UGAL-L_VCH accepted %.3f vs MIN %.3f on WC; want at least 2x", ugalAcc, minAcc)
	}
}

func TestDragonflyFBVCLevelsMonotone(t *testing.T) {
	// The deadlock-freedom ladder must hold on the variant: dimension-
	// order local hops stay within one VC class per group visit.
	d := fbTopo(t)
	rec := &hopRecorder{inner: NewUGAL(d, UGALLocalVCH), topo: d, bad: t.Errorf, lastVC: map[uint64]vcState{}}
	net, err := sim.New(d, testCfg(), rec, traffic.NewWorstCase(d))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	net.SetLoad(0.3)
	for i := 0; i < 1200; i++ {
		net.Step()
	}
}
