package sim

import (
	"context"
	"strings"
	"testing"

	"dragonfly/internal/topology"
)

// loopRouting wedges the network on purpose: every packet is forwarded
// to local port 1 on VC 0 forever and never ejected, so input buffers
// and credits exhaust and the stall detector fires.
type loopRouting struct{}

func (loopRouting) Name() string                              { return "loop" }
func (loopRouting) Decide(*Network, *Router, *HopState) error { return nil }
func (loopRouting) NextHop(_ *Network, _ *Router, hs *HopState) error {
	hs.Port = 1 // the single local port of a p=1, a=2 router
	hs.VC = 0
	return nil
}

// ringTraffic sends every packet to the next terminal (it is never
// delivered; loopRouting discards the destination).
type ringTraffic struct{ n int }

func (ringTraffic) Name() string                 { return "ring" }
func (r ringTraffic) Dest(src int, _ uint64) int { return (src + 1) % r.n }

func wedgedNetwork(t *testing.T) *Network {
	t.Helper()
	d, err := topology.NewDragonfly(1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BufDepth: 1, VCs: 3, LocalLatency: 1, GlobalLatency: 2, Seed: 1}
	net, err := New(d, cfg, loopRouting{}, ringTraffic{n: d.Terminals()})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRunResetsMeasurementStateOnStallError is the regression test for
// the measurement-state leak: an error return from inside the
// measurement loop used to leave net.measuring and net.countWindow set,
// so any later run on the same network tagged its warm-up packets and
// mis-counted its window.
func TestRunResetsMeasurementStateOnStallError(t *testing.T) {
	net := wedgedNetwork(t)
	_, err := RunCtx(context.Background(), net, RunConfig{
		Load:          1,
		WarmupCycles:  0,
		MeasureCycles: 100000,
		DrainCycles:   100,
		StallLimit:    50,
	})
	if err == nil {
		t.Fatal("wedged network did not report a stall")
	}
	if !strings.Contains(err.Error(), "measurement") {
		t.Fatalf("stall not during measurement: %v", err)
	}
	if net.measuring {
		t.Error("net.measuring still set after failed run")
	}
	if net.countWindow {
		t.Error("net.countWindow still set after failed run")
	}
	if net.run != nil {
		t.Error("net.run still installed after failed run")
	}
}

// TestRunResetsObserverOnWarmupError covers the earlier exit path: a
// stall during warm-up must also clear the ejection observer.
func TestRunResetsObserverOnWarmupError(t *testing.T) {
	net := wedgedNetwork(t)
	_, err := RunCtx(context.Background(), net, RunConfig{
		Load:          1,
		WarmupCycles:  100000,
		MeasureCycles: 100,
		DrainCycles:   100,
		StallLimit:    50,
	})
	if err == nil {
		t.Fatal("wedged network did not report a stall")
	}
	if !strings.Contains(err.Error(), "warm-up") {
		t.Fatalf("stall not during warm-up: %v", err)
	}
	if net.run != nil || net.measuring || net.countWindow {
		t.Error("measurement state leaked after warm-up failure")
	}
}
