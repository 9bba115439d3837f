package core

import (
	"testing"

	"dragonfly/internal/parallel"
	"dragonfly/internal/sim"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func shortRC() sim.RunConfig {
	return sim.RunConfig{WarmupCycles: 200, MeasureCycles: 200, DrainCycles: 3000}
}

// samePoints asserts two sweeps are bit-identical: same truncation, and
// per point the same load, latency statistics, throughput and
// saturation flags.
func samePoints(t *testing.T, label string, a, b []SweepPoint) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d points vs %d points", label, len(a), len(b))
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.Load != pb.Load {
			t.Errorf("%s point %d: load %v vs %v", label, i, pa.Load, pb.Load)
		}
		if pa.Result.Latency.Mean() != pb.Result.Latency.Mean() ||
			pa.Result.Latency.Count() != pb.Result.Latency.Count() ||
			pa.Result.MinLatency.Mean() != pb.Result.MinLatency.Mean() ||
			pa.Result.NonminLatency.Mean() != pb.Result.NonminLatency.Mean() {
			t.Errorf("%s point %d: latency stats differ (%v/%d vs %v/%d)", label, i,
				pa.Result.Latency.Mean(), pa.Result.Latency.Count(),
				pb.Result.Latency.Mean(), pb.Result.Latency.Count())
		}
		if pa.Result.Accepted != pb.Result.Accepted {
			t.Errorf("%s point %d: accepted %v vs %v", label, i, pa.Result.Accepted, pb.Result.Accepted)
		}
		if pa.Result.Saturated != pb.Result.Saturated {
			t.Errorf("%s point %d: saturated %v vs %v", label, i, pa.Result.Saturated, pb.Result.Saturated)
		}
	}
}

// TestSweepParallelDeterminism is the headline guarantee of the parallel
// engine: a sweep dispatched to four workers returns bit-identical
// results to the same sweep on one worker (which follows the exact
// serial code path, wave size 1).
func TestSweepParallelDeterminism(t *testing.T) {
	sys := testSystem(t)
	rc := shortRC()
	loads := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
	for _, alg := range []Algorithm{AlgUGALL, AlgVAL} {
		serial, err := sys.SweepPoolW(parallel.New(1), alg, Workload{Traffic: "ur"}, loads, rc, 2)
		if err != nil {
			t.Fatalf("%s jobs=1: %v", alg, err)
		}
		par, err := sys.SweepPoolW(parallel.New(4), alg, Workload{Traffic: "ur"}, loads, rc, 2)
		if err != nil {
			t.Fatalf("%s jobs=4: %v", alg, err)
		}
		samePoints(t, string(alg), serial, par)
	}
}

// TestSweepParallelTruncation checks the stop-after-saturation semantics
// survive speculation: MIN on WC traffic saturates at the first load
// point, so a wave of four speculative points must still be truncated
// exactly where the serial sweep stops.
func TestSweepParallelTruncation(t *testing.T) {
	sys := testSystem(t)
	rc := sim.RunConfig{WarmupCycles: 200, MeasureCycles: 200, DrainCycles: 1000}
	loads := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	serial, err := sys.SweepPoolW(parallel.New(1), AlgMIN, Workload{Traffic: "wc"}, loads, rc, 1)
	if err != nil {
		t.Fatalf("jobs=1: %v", err)
	}
	par, err := sys.SweepPoolW(parallel.New(4), AlgMIN, Workload{Traffic: "wc"}, loads, rc, 1)
	if err != nil {
		t.Fatalf("jobs=4: %v", err)
	}
	if len(serial) == len(loads) {
		t.Fatal("MIN/WC did not saturate early; truncation untested")
	}
	samePoints(t, "MIN/WC", serial, par)
}

// TestConcurrentSweepsSharedSystem exercises several sweeps over one
// shared *System at once — the System (topology included) must be safe
// for concurrent read-only use while each sweep builds its own networks.
// Run with -race to make this a real detector.
func TestConcurrentSweepsSharedSystem(t *testing.T) {
	sys := testSystem(t)
	rc := shortRC()
	loads := []float64{0.1, 0.2, 0.3}
	algs := []Algorithm{AlgMIN, AlgVAL, AlgUGALL, AlgUGALG}
	pool := parallel.New(4)
	err := pool.ForEach(len(algs), func(i int) error {
		pts, err := sys.SweepPoolW(pool, algs[i], Workload{Traffic: "ur"}, loads, rc, 2)
		if err != nil {
			return err
		}
		if len(pts) == 0 {
			t.Errorf("%s: empty sweep", algs[i])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSweepPoolNilUsesDefault pins the nil-pool convenience path.
func TestSweepPoolNilUsesDefault(t *testing.T) {
	sys := testSystem(t)
	pts, err := sys.SweepPoolW(nil, AlgMIN, Workload{Traffic: "ur"}, []float64{0.1}, shortRC(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
}
