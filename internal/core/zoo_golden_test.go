package core_test

// Topology-zoo determinism tests: every new topology family must give
// the sharded engine nothing to disagree about — shards=1 and shards=N
// produce bit-identical results, pristine and under a transient fault
// timeline, and the shards=1 hashes are pinned as goldens so a routing
// or builder change that silently moves any family's numbers is caught
// the same way the canonical dragonfly's are.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/topology"
)

// zooConfigs are the machines under test: one small instance per new
// family (the canonical dragonfly is covered by the original goldens).
var zooConfigs = []struct {
	family string
	params map[string]int
}{
	{"dragonflyplus", map[string]int{"p": 2, "leaves": 4, "spines": 4, "h": 2}},
	{"swapped", map[string]int{"p": 2, "k": 6}},
	{"aries", map[string]int{"p": 1, "blades": 4, "chassis": 2, "bundle": 2, "h": 2, "g": 8}},
}

// zooGolden pins the serial (shards=1) hash per family, seed 1.
// Captured from the first landing of the topology layer; a change
// means the family's simulation results moved.
var zooGolden = map[string]string{
	"dragonflyplus": "d876b600984552b2",
	"swapped":       "2fccd51b84c156d4",
	"aries":         "94b470ce1abc366d",
}

// zooHash runs the family's scenario set at one shard count and folds
// the results into a hash: two pristine runs (adaptive and minimal
// routing) plus one run under a fail-then-recover timeline, so the
// degraded-routing and epoch-switch paths of every family are inside
// the determinism contract.
func zooHash(t *testing.T, family string, params map[string]int, shards int) string {
	t.Helper()
	h := fnv.New64a()

	sys, err := core.NewSystem(core.SystemConfig{Topology: family, TopoParams: params, Seed: 1, Shards: shards})
	if err != nil {
		t.Fatalf("NewSystem(%s): %v", family, err)
	}
	for _, r := range []goldenRun{
		{core.AlgUGALLVCH, core.Workload{Traffic: "ur"}, 0.3},
		{core.AlgMIN, core.Workload{Traffic: "ur"}, 0.2},
	} {
		res, err := sys.RunW(r.alg, r.wl, r.load, goldenRC())
		if err != nil {
			t.Fatalf("%s shards %d %s: %v", family, shards, r.tag(), err)
		}
		hashResult(h, r.tag(), res)
	}

	tl := fault.NewTimeline(1).
		FailChannelsAt(150, topology.ClassGlobal, 3).
		RecoverAllAt(450)
	sched, err := tl.Compile(sys.Topo)
	if err != nil {
		t.Fatalf("%s: Compile: %v", family, err)
	}
	tsys, err := sys.WithTimeline(sched)
	if err != nil {
		t.Fatalf("%s: WithTimeline: %v", family, err)
	}
	res, err := tsys.RunW(core.AlgUGALL, core.Workload{Traffic: "ur"}, 0.25, goldenRC())
	if err != nil {
		t.Fatalf("%s shards %d timeline run: %v", family, shards, err)
	}
	hashResult(h, fmt.Sprintf("timeline killed=%d rerouted=%d", res.KilledInFlight, res.Rerouted), res)

	return fmt.Sprintf("%016x", h.Sum64())
}

// TestZooGolden pins every family's serial hash.
func TestZooGolden(t *testing.T) {
	for _, cfg := range zooConfigs {
		got := zooHash(t, cfg.family, cfg.params, 1)
		want, ok := zooGolden[cfg.family]
		if !ok {
			t.Errorf("no golden pinned for %s: serial hash is %s", cfg.family, got)
			continue
		}
		if got != want {
			t.Errorf("%s: serial hash %s, want golden %s", cfg.family, got, want)
		}
	}
}

// TestZooShardedMatchesSerial pins shards=1 ≡ shards=N for every new
// family, every shard count of the standard set: the shard partition
// follows each family's group-major numbering, so a family whose
// builder breaks contiguity (or whose routing reads cross-shard state
// out of phase) diverges here.
func TestZooShardedMatchesSerial(t *testing.T) {
	for _, cfg := range zooConfigs {
		want := zooHash(t, cfg.family, cfg.params, 1)
		for _, k := range shardCounts()[1:] {
			if got := zooHash(t, cfg.family, cfg.params, k); got != want {
				t.Errorf("%s shards %d: hash %s, want serial %s", cfg.family, k, got, want)
			}
		}
	}
}
