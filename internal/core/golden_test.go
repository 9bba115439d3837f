package core_test

// Golden-hash determinism tests: the simulation results for pinned
// seeds are hashed and compared against constants captured from the
// pre-arena (pointer-heap) engine. They pin the refactored engine to
// the old engine's exact numbers — same seeds, same accepted/latency/
// drop values bit for bit — so any perf work on the hot loop that
// changes results is caught immediately.
//
// The hash covers every field a paper figure reads: measured-packet
// count, mean latency, accepted throughput, minimal fraction, total
// cycles, drops and the saturation flag, across several algorithm/
// pattern/load combinations, pristine and with 10% of the global
// channels failed.

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// goldenPristine and goldenFaulted are the expected hashes per seed,
// captured from the engine before the arena refactor (commit of PR 2).
var goldenPristine = map[uint64]string{
	1: "3ba29f816ae5f0b0",
	2: "b96a8f8d2e39e406",
	3: "b5a7a36bda518ea7",
}

var goldenFaulted = map[uint64]string{
	1: "c73300bc398c84a0",
	2: "07e92eb3271e1f4b",
	3: "ead7ac9d2c21e230",
}

// goldenRC is the fixed measurement recipe of the golden runs; small
// enough to keep the test quick on the 72-node example network.
func goldenRC() sim.RunConfig {
	return sim.RunConfig{WarmupCycles: 500, MeasureCycles: 500, DrainCycles: 20000}
}

// hashResult folds the externally visible measurements of one run into
// the hash. Floats are hashed by their IEEE bit patterns: the contract
// is bit-identical, not approximately equal.
func hashResult(w io.Writer, tag string, res sim.Result) {
	fmt.Fprintf(w, "%s count=%d mean=%016x acc=%016x minfrac=%016x cycles=%d dropped=%d sat=%v timeout=%v\n",
		tag,
		res.Latency.Count(),
		math.Float64bits(res.Latency.Mean()),
		math.Float64bits(res.Accepted),
		math.Float64bits(res.MinimalFraction),
		res.Cycles,
		res.Dropped,
		res.Saturated,
		res.DrainTimeout,
	)
}

// goldenRun is one golden scenario. Its hash tag spells the traffic
// family in upper case ("MIN/UR@0.30"), as the goldens were pinned.
type goldenRun struct {
	alg  core.Algorithm
	wl   core.Workload
	load float64
}

func (r goldenRun) tag() string {
	return fmt.Sprintf("%s/%s@%.2f", r.alg, strings.ToUpper(r.wl.Label()), r.load)
}

// goldenHash runs the scenario set for one seed and returns the
// combined FNV-1a hash.
func goldenHash(t *testing.T, seed uint64, failGlobals bool) string {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: seed})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	runs := []goldenRun{
		{core.AlgMIN, core.Workload{Traffic: "ur"}, 0.3},
		{core.AlgVAL, core.Workload{Traffic: "wc"}, 0.2},
		{core.AlgUGALLVCH, core.Workload{Traffic: "ur"}, 0.3},
		{core.AlgUGALLVCH, core.Workload{Traffic: "wc"}, 0.25},
	}
	if failGlobals {
		plan := fault.NewPlan(seed)
		plan.FailFraction(sys.Topo, topology.ClassGlobal, 0.10)
		sys = sys.WithFaults(plan)
		runs = []goldenRun{
			{core.AlgMIN, core.Workload{Traffic: "ur"}, 0.2},
			{core.AlgUGALL, core.Workload{Traffic: "ur"}, 0.25},
			{core.AlgVAL, core.Workload{Traffic: "wc"}, 0.15},
		}
	}
	h := fnv.New64a()
	for _, r := range runs {
		res, err := sys.RunW(r.alg, r.wl, r.load, goldenRC())
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, r.tag(), err)
		}
		hashResult(h, r.tag(), res)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenHashPristine pins the engine to the pre-refactor results on
// a pristine topology for three seeds.
func TestGoldenHashPristine(t *testing.T) {
	for seed, want := range goldenPristine {
		got := goldenHash(t, seed, false)
		if got != want {
			t.Errorf("pristine seed %d: hash %s, want %s (engine results diverged from pre-refactor baseline)", seed, got, want)
		}
	}
}

// TestGoldenHashFaulted pins the fault-detour paths: 10%% of the global
// channels failed, same three seeds.
func TestGoldenHashFaulted(t *testing.T) {
	for seed, want := range goldenFaulted {
		got := goldenHash(t, seed, true)
		if got != want {
			t.Errorf("faulted seed %d: hash %s, want %s (engine results diverged from pre-refactor baseline)", seed, got, want)
		}
	}
}
