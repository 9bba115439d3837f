package core_test

import (
	"testing"

	"dragonfly/internal/core"
)

// TestVOQGrowsPastBufDepth pins down how deep a virtual output queue
// can get. waitQ[(out, vc)] collects flits from every input port of the
// router, so credits bound it only by the router's radix × VCs ×
// BufDepth, not by BufDepth: under saturated worst-case traffic the
// queue towards the one congested global channel holds far more than
// one input buffer's worth. Any fixed-capacity queue layout sized to
// BufDepth (plus the output buffer) would overflow here.
func TestVOQGrowsPastBufDepth(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: 1})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	net, err := sys.NewNetworkFor(core.AlgMIN, core.Workload{Traffic: "wc"})
	if err != nil {
		t.Fatalf("NewNetworkFor: %v", err)
	}
	cfg := sys.SimConfig(core.AlgMIN)
	outDepth := cfg.OutDepth
	if outDepth == 0 {
		outDepth = 4 // sim's default output-buffer depth
	}
	bound := cfg.BufDepth + outDepth
	net.SetLoad(0.9)
	peak := 0
	for cycle := 0; cycle < 2000; cycle++ {
		if err := net.Step(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for id := 0; id < sys.Topo.Routers(); id++ {
			r := net.RouterAt(id)
			for p := 0; p < sys.Topo.Radix(id); p++ {
				for vc := 0; vc < cfg.VCs; vc++ {
					if q := r.PendingOutVC(p, vc); q > peak {
						peak = q
					}
				}
			}
		}
	}
	if peak <= bound {
		t.Fatalf("peak PendingOutVC %d never exceeded BufDepth+OutDepth = %d under saturated WC traffic", peak, bound)
	}
	t.Logf("peak PendingOutVC %d against BufDepth+OutDepth = %d", peak, bound)
}
