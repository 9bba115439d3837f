package core

import (
	"testing"

	"dragonfly/internal/sim"
)

// TestAlgorithmPatternMatrix drives every routing algorithm against
// every traffic pattern on the 72-node example and checks the universal
// invariants: packets deliver, accepted tracks offered below saturation,
// and nothing deadlocks.
func TestAlgorithmPatternMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix test")
	}
	rc := sim.RunConfig{WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 15000, StallLimit: 5000}
	patterns := []struct{ name, family string }{
		{"UR", "ur"}, {"WC", "wc"}, {"BitComplement", "bitcomp"}, {"Tornado", "tornado"}, {"Permutation", "perm"},
	}
	for _, alg := range Algorithms() {
		for _, pat := range patterns {
			alg, pat := alg, pat
			t.Run(string(alg)+"/"+pat.name, func(t *testing.T) {
				sys, err := NewSystem(SystemConfig{P: 2, A: 4, H: 2})
				if err != nil {
					t.Fatal(err)
				}
				// 0.1 is below every algorithm/pattern saturation point
				// except MIN on the group-funnelling patterns.
				res, err := sys.RunW(alg, Workload{Traffic: pat.family}, 0.1, rc)
				if err != nil {
					t.Fatalf("RunW: %v", err)
				}
				if res.Latency.Count() == 0 {
					t.Fatal("no packets measured")
				}
				funnel := pat.family == "wc" || pat.family == "tornado"
				if alg == AlgMIN && funnel {
					// Minimal routing legitimately saturates here.
					return
				}
				if res.Accepted < 0.08 {
					t.Errorf("accepted %.3f at offered 0.1", res.Accepted)
				}
				if res.DrainTimeout {
					t.Error("drain timeout at light load")
				}
			})
		}
	}
}

// TestExtremeConfigurations exercises boundary simulator configurations
// that have historically hidden bugs: minimum buffers, single-VC-class
// output FIFOs, long global channels.
func TestExtremeConfigurations(t *testing.T) {
	rc := sim.RunConfig{WarmupCycles: 300, MeasureCycles: 300, DrainCycles: 15000, StallLimit: 8000}
	cases := []SystemConfig{
		{P: 2, A: 4, H: 2, BufDepth: 1},
		{P: 2, A: 4, H: 2, BufDepth: 2, GlobalLatency: 16},
		{P: 1, A: 2, H: 1, Groups: 2},
		{P: 3, A: 5, H: 3, Groups: 4},
	}
	for _, cfg := range cases {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		res, err := sys.RunW(AlgUGALLVCH, Workload{Traffic: "ur"}, 0.05, rc)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if res.Latency.Count() == 0 {
			t.Errorf("%+v: no packets delivered", cfg)
		}
	}
}

// TestLatencyMonotoneInLoad checks a basic sanity property: on benign
// traffic with adaptive routing, mean latency does not decrease as load
// rises (within noise).
func TestLatencyMonotoneInLoad(t *testing.T) {
	sys, err := NewSystem(SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.RunConfig{WarmupCycles: 600, MeasureCycles: 600, DrainCycles: 15000}
	prev := 0.0
	for _, load := range []float64{0.1, 0.3, 0.5, 0.7} {
		res, err := sys.RunW(AlgUGALG, Workload{Traffic: "ur"}, load, rc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency.Mean() < prev-1.0 {
			t.Errorf("latency dropped from %.1f to %.1f at load %.1f", prev, res.Latency.Mean(), load)
		}
		prev = res.Latency.Mean()
	}
}

// TestCreditRoundTripBeatsPlainVCHOnWC pins the Figure 16 headline at
// test scale: with the credit-delay mechanism on, the minimally-routed
// packets' latency must not exceed plain UGAL-L_VCH's.
func TestCreditRoundTripBeatsPlainVCHOnWC(t *testing.T) {
	rc := sim.RunConfig{WarmupCycles: 1500, MeasureCycles: 1000, DrainCycles: 20000}
	run := func(alg Algorithm) float64 {
		sys, err := NewSystem(SystemConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunW(alg, Workload{Traffic: "wc"}, 0.3, rc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Saturated {
			t.Fatalf("%s saturated at 0.3", alg)
		}
		return res.MinLatency.Mean()
	}
	vch := run(AlgUGALLVCH)
	cr := run(AlgUGALLCR)
	if cr > vch*1.05 {
		t.Errorf("UGAL-L_CR min-packet latency %.1f exceeds UGAL-L_VCH %.1f", cr, vch)
	}
}
