package core_test

// Multi-channel golden: the 72-node golden machine and the benchmark
// machines all wire exactly one global channel per group pair, so no
// other end-to-end test reaches the per-packet draw among a pair's
// parallel channels (Mix(seed) % n). These runs use under-populated
// a=4 h=2 machines: 5 groups give every pair two channels, 6 groups
// leave a circulant remainder (some pairs one channel, some two,
// antipodal slot included). Each algorithm runs pristine and with 10%
// of the global channels failed, serial and on 2 shards; both shard
// counts must reproduce the same pinned hash.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/topology"
)

// goldenMultiChannel maps "g<groups>/<pristine|faulted>" to the
// combined hash of the scenario set, captured before the compiled path
// table replaced the per-hop oracle calls.
var goldenMultiChannel = map[string]string{
	"g5/pristine": "8bfee1ce138cd92a",
	"g5/faulted":  "0c59b6752ca3de9f",
	"g6/pristine": "90957e0e9f5d1cee",
	"g6/faulted":  "b6aa8a447bd1d271",
}

// multiChannelHash runs the scenario set on one machine and returns the
// combined FNV-1a hash.
func multiChannelHash(t *testing.T, groups int, failGlobals bool, shards int) string {
	t.Helper()
	const seed = 7
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Groups: groups, Seed: seed, Shards: shards})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if failGlobals {
		plan := fault.NewPlan(seed)
		plan.FailFraction(sys.Topo, topology.ClassGlobal, 0.10)
		sys = sys.WithFaults(plan)
	}
	runs := []goldenRun{
		{core.AlgMIN, core.Workload{Traffic: "ur"}, 0.3},
		{core.AlgVAL, core.Workload{Traffic: "wc"}, 0.2},
		{core.AlgUGALL, core.Workload{Traffic: "wc"}, 0.25},
		{core.AlgUGALLVCH, core.Workload{Traffic: "wc"}, 0.25},
		{core.AlgUGALG, core.Workload{Traffic: "ur"}, 0.3},
	}
	h := fnv.New64a()
	for _, r := range runs {
		res, err := sys.RunW(r.alg, r.wl, r.load, goldenRC())
		if err != nil {
			t.Fatalf("g=%d faulted=%v shards %d %s: %v", groups, failGlobals, shards, r.tag(), err)
		}
		hashResult(h, r.tag(), res)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenHashMultiChannel pins the parallel-channel slot draw end to
// end on machines with more than one global channel per group pair.
func TestGoldenHashMultiChannel(t *testing.T) {
	for _, groups := range []int{5, 6} {
		for _, failed := range []bool{false, true} {
			key := fmt.Sprintf("g%d/pristine", groups)
			if failed {
				key = fmt.Sprintf("g%d/faulted", groups)
			}
			want := goldenMultiChannel[key]
			for _, shards := range []int{1, 2} {
				if got := multiChannelHash(t, groups, failed, shards); got != want {
					t.Errorf("%s shards %d: hash %s, want %s", key, shards, got, want)
				}
			}
		}
	}
}
