package core_test

// Shard determinism tests: the sharded engine must reproduce the
// serial engine's results bit for bit, for every shard count, on every
// fault scenario. The fast suite replays the 72-node golden scenarios
// (pristine, 10% failed globals, fail-then-recover timeline) at shard
// counts 1, 2, 3 and NumCPU and pins them to the existing golden
// constants — one divergent float anywhere in a run changes the hash.
// The 1K-node suite does the same on the paper's evaluation machine
// (p=4 a=8 h=4, 1056 nodes), serial vs sharded, three seeds.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/metrics"
	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// shardCounts are the shard counts every scenario runs at. NumCPU
// exercises whatever parallelism the test machine actually has (and on
// a 1-core box still exercises the mailbox machinery: sharding is a
// state partition, not a thread count).
func shardCounts() []int {
	counts := []int{1, 2, 3}
	if n := runtime.NumCPU(); n > 3 {
		counts = append(counts, n)
	}
	return counts
}

// goldenHashSharded is goldenHash on a system partitioned into shards
// engine shards: same 72-node machine, same scenario set, same result
// folding.
func goldenHashSharded(t *testing.T, seed uint64, failGlobals bool, shards int) string {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: seed, Shards: shards})
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
			t.Fatalf("seed %d shards %d %s: %v", seed, shards, r.tag(), err)
		}
		hashResult(h, r.tag(), res)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestShardedMatchesPristineGolden pins the sharded engine to the
// serial pristine goldens for every shard count: partitioning the
// routers across goroutines must not perturb a single bit.
func TestShardedMatchesPristineGolden(t *testing.T) {
	for seed, want := range goldenPristine {
		for _, k := range shardCounts() {
			if got := goldenHashSharded(t, seed, false, k); got != want {
				t.Errorf("pristine seed %d shards %d: hash %s, want serial golden %s", seed, k, got, want)
			}
		}
	}
}

// TestShardedMatchesFaultedGolden pins the sharded fault-detour paths
// (10% of globals down) to the serial faulted goldens.
func TestShardedMatchesFaultedGolden(t *testing.T) {
	for seed, want := range goldenFaulted {
		for _, k := range shardCounts() {
			if got := goldenHashSharded(t, seed, true, k); got != want {
				t.Errorf("faulted seed %d shards %d: hash %s, want serial golden %s", seed, k, got, want)
			}
		}
	}
}

// TestShardedTimelineMatchesSerial runs the fail-then-recover timeline
// (channels and a router die mid-run, everything revives later) serial
// and sharded and requires bit-identical results: epoch swaps happen on
// the cycle barrier with the mailboxes drained, so kill/reroute/rescue
// accounting must not depend on the shard count.
func TestShardedTimelineMatchesSerial(t *testing.T) {
	runs := []goldenRun{
		{core.AlgUGALL, core.Workload{Traffic: "ur"}, 0.25},
		{core.AlgMIN, core.Workload{Traffic: "ur"}, 0.2},
	}
	for _, seed := range []uint64{1, 2, 3} {
		hash := func(shards int) string {
			sys := failRecoverSystem(t, seed, shards)
			h := fnv.New64a()
			for _, r := range runs {
				res, err := sys.RunW(r.alg, r.wl, r.load, goldenRC())
				if err != nil {
					t.Fatalf("seed %d shards %d: %v", seed, shards, err)
				}
				if shards == 1 && r.alg == core.AlgUGALL && res.KilledInFlight == 0 {
					t.Errorf("seed %d: timeline killed nothing; the scenario is not exercising the fault path", seed)
				}
				hashResult(h, fmt.Sprintf("%s killed=%d rerouted=%d", r.tag(), res.KilledInFlight, res.Rerouted), res)
			}
			return fmt.Sprintf("%016x", h.Sum64())
		}
		want := hash(1)
		for _, k := range shardCounts()[1:] {
			if got := hash(k); got != want {
				t.Errorf("timeline seed %d shards %d: hash %s, want serial %s", seed, k, got, want)
			}
		}
	}
}

// TestShardedCollectorsMatchSerial pins what the collectors see, not
// just the Result: on the fail-then-recover timeline, a windowed series
// with link classes, a 1/8 hop tracer and per-channel flit counters,
// stacked through metrics.Multi, must record identical windows, trace
// records and per-link busy counts at 1, 2 and 4 shards.
func TestShardedCollectorsMatchSerial(t *testing.T) {
	type observed struct {
		windows []obs.Window
		trace   []metrics.Hop
		busy    []int64
	}
	observe := func(shards int) observed {
		sys := failRecoverSystem(t, 1, shards)
		classes := sim.LinkClasses(sys.Topo)
		win := obs.NewWindows(obs.WindowsConfig{Width: 50, Terminals: sys.Topo.Nodes(), LinkClasses: classes})
		tr := obs.NewTracer(8, 1, 1<<14)
		util := metrics.NewChannelUtil(len(classes))
		if _, err := sys.RunW(core.AlgUGALL, core.Workload{Traffic: "ur"}, 0.25, goldenRC(),
			core.WithCollector(metrics.Multi{win, tr, util})); err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		o := observed{windows: win.Windows(), trace: tr.Records(), busy: make([]int64, len(classes))}
		for l := range o.busy {
			o.busy[l] = util.Busy(l)
		}
		return o
	}
	want := observe(1)
	kills := int64(0)
	for _, w := range want.windows {
		kills += w.Kills
	}
	if kills == 0 || len(want.trace) == 0 {
		t.Fatalf("serial run saw %d kills and %d trace records; the scenario is not exercising the collectors", kills, len(want.trace))
	}
	for _, k := range []int{2, 4} {
		got := observe(k)
		if !reflect.DeepEqual(got.windows, want.windows) {
			t.Errorf("shards %d: window series differs from the serial engine's", k)
		}
		if !slices.Equal(got.trace, want.trace) {
			t.Errorf("shards %d: %d trace records differ from the serial engine's %d", k, len(got.trace), len(want.trace))
		}
		if !slices.Equal(got.busy, want.busy) {
			t.Errorf("shards %d: per-link busy counts differ from the serial engine's", k)
		}
	}
}

// TestSharded1KNodeMatchesSerial pins serial ≡ sharded on the paper's
// 1K-node evaluation machine (p=4 a=8 h=4 g=33, 1056 nodes), three
// seeds, pristine and under a transient fault timeline. Short mode and
// the race detector keep one seed, so -short and -race still cover the
// machine size without the ~20x race slowdown times three.
func TestSharded1KNodeMatchesSerial(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() || raceEnabled {
		seeds = seeds[:1]
	}
	rc := sim.RunConfig{WarmupCycles: 300, MeasureCycles: 300, DrainCycles: 10000}
	for _, seed := range seeds {
		for _, withTimeline := range []bool{false, true} {
			hash := func(shards int) string {
				sys, err := core.NewSystem(core.SystemConfig{P: 4, A: 8, H: 4, Seed: seed, Shards: shards})
				if err != nil {
					t.Fatalf("NewSystem: %v", err)
				}
				if withTimeline {
					tl := fault.NewTimeline(seed).
						FailChannelsAt(150, topology.ClassGlobal, 20).
						FailRouterAt(150, 7).
						RecoverAllAt(450)
					sched, err := tl.Compile(sys.Topo)
					if err != nil {
						t.Fatalf("Compile: %v", err)
					}
					if sys, err = sys.WithTimeline(sched); err != nil {
						t.Fatalf("WithTimeline: %v", err)
					}
				}
				res, err := sys.RunW(core.AlgUGALLVCH, core.Workload{Traffic: "ur"}, 0.3, rc)
				if err != nil {
					t.Fatalf("seed %d timeline=%v shards %d: %v", seed, withTimeline, shards, err)
				}
				h := fnv.New64a()
				hashResult(h, fmt.Sprintf("1k killed=%d rerouted=%d", res.KilledInFlight, res.Rerouted), res)
				return fmt.Sprintf("%016x", h.Sum64())
			}
			want := hash(1)
			if got := hash(4); got != want {
				t.Errorf("1K nodes seed %d timeline=%v: 4-shard hash %s, want serial %s", seed, withTimeline, got, want)
			}
		}
	}
}
