package core_test

// Fault-timeline equivalence and determinism tests. Two golden-hash
// pins anchor the epoch-swap machinery to the static engine: an empty
// timeline must reproduce the pristine goldens bit for bit (the swap
// path adds nothing to a run with no events), and a timeline whose only
// events fire at cycle 0 must reproduce the static fault-plan goldens
// (epoch 0 replays the same seeded draw chain a standing Plan makes).
// A third test pins a fail-then-recover run to identical results across
// worker-pool sizes, and a fourth drives the paths that rebuild the
// engine's derived occupancy counters (partitioning, Restore, epoch
// swaps) on the 1K machine.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/parallel"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// timelineHash runs the given scenario set on the 72-node golden
// network with tl attached and returns the combined FNV-1a hash, using
// the same recipe and result folding as the static golden tests.
func timelineHash(t *testing.T, seed uint64, tl *fault.Timeline, runs []goldenRun) string {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: seed})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sched, err := tl.Compile(sys.Topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sys, err = sys.WithTimeline(sched)
	if err != nil {
		t.Fatalf("WithTimeline: %v", err)
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

// TestTimelineEmptyMatchesPristineGolden pins the no-event timeline to
// the static pristine goldens: installing the epoch machinery with
// nothing scheduled must not perturb a single bit of the results.
func TestTimelineEmptyMatchesPristineGolden(t *testing.T) {
	runs := []goldenRun{
		{core.AlgMIN, core.Workload{Traffic: "ur"}, 0.3},
		{core.AlgVAL, core.Workload{Traffic: "wc"}, 0.2},
		{core.AlgUGALLVCH, core.Workload{Traffic: "ur"}, 0.3},
		{core.AlgUGALLVCH, core.Workload{Traffic: "wc"}, 0.25},
	}
	for seed, want := range goldenPristine {
		got := timelineHash(t, seed, fault.NewTimeline(seed), runs)
		if got != want {
			t.Errorf("seed %d: empty-timeline hash %s, want pristine golden %s", seed, got, want)
		}
	}
}

// TestTimelineCycleZeroMatchesFaultedGolden pins a cycle-0-only
// timeline to the static fault-plan goldens: epoch 0 compiled from
// "fail 10%% of globals at cycle 0" replays the exact draw chain of the
// equivalent standing Plan, so results must match bit for bit.
func TestTimelineCycleZeroMatchesFaultedGolden(t *testing.T) {
	runs := []goldenRun{
		{core.AlgMIN, core.Workload{Traffic: "ur"}, 0.2},
		{core.AlgUGALL, core.Workload{Traffic: "ur"}, 0.25},
		{core.AlgVAL, core.Workload{Traffic: "wc"}, 0.15},
	}
	for seed, want := range goldenFaulted {
		tl := fault.NewTimeline(seed).FailFractionAt(0, topology.ClassGlobal, 0.10)
		got := timelineHash(t, seed, tl, runs)
		if got != want {
			t.Errorf("seed %d: cycle-0 timeline hash %s, want faulted golden %s", seed, got, want)
		}
	}
}

// failRecoverSystem builds the golden network with a mid-run timeline:
// six global channels and one router die at cycle 200, everything
// recovers at cycle 800 — both event cycles land inside the golden
// recipe's warm-up + measurement window. shards is the engine shard
// count (0 = serial).
func failRecoverSystem(t *testing.T, seed uint64, shards int) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: seed, Shards: shards})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	tl := fault.NewTimeline(seed).
		FailChannelsAt(200, topology.ClassGlobal, 6).
		FailRouterAt(200, 5).
		RecoverAllAt(800)
	sched, err := tl.Compile(sys.Topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sys, err = sys.WithTimeline(sched)
	if err != nil {
		t.Fatalf("WithTimeline: %v", err)
	}
	return sys
}

// TestTimelineDeterministicAcrossPools runs the fail-then-recover sweep
// on one worker and on four and requires bit-identical points — the
// epoch swaps consult only per-network state, so pool size must not
// leak into results.
func TestTimelineDeterministicAcrossPools(t *testing.T) {
	sys := failRecoverSystem(t, 1, 0)
	loads := []float64{0.1, 0.2, 0.3}
	sweep := func(pool *parallel.Pool) []core.SweepPoint {
		pts, err := sys.SweepPoolW(pool, core.AlgUGALL, core.Workload{Traffic: "ur"}, loads, goldenRC(), 0)
		if err != nil {
			t.Fatalf("SweepPoolW: %v", err)
		}
		return pts
	}
	one := sweep(parallel.New(1))
	four := sweep(parallel.New(4))
	if len(one) != len(four) {
		t.Fatalf("point counts differ: %d vs %d", len(one), len(four))
	}
	var killed int64
	for i := range one {
		a, b := fnv.New64a(), fnv.New64a()
		hashResult(a, "pt", one[i].Result)
		hashResult(b, "pt", four[i].Result)
		if a.Sum64() != b.Sum64() {
			t.Errorf("load %.2f: results differ between 1 and 4 workers", one[i].Load)
		}
		if one[i].Result.KilledInFlight != four[i].Result.KilledInFlight ||
			one[i].Result.Rerouted != four[i].Result.Rerouted ||
			one[i].Result.Dropped != four[i].Result.Dropped {
			t.Errorf("load %.2f: fault accounting differs between pools (killed %d/%d rerouted %d/%d dropped %d/%d)",
				one[i].Load,
				one[i].Result.KilledInFlight, four[i].Result.KilledInFlight,
				one[i].Result.Rerouted, four[i].Result.Rerouted,
				one[i].Result.Dropped, four[i].Result.Dropped)
		}
		killed += one[i].Result.KilledInFlight
	}
	if killed == 0 {
		t.Error("no packet killed by the fail event: the timeline never fired")
	}
}

// TestTimelineInvariantsAcrossRevive steps one network through the
// fail and recover events by hand and checks the per-(link, VC) credit
// conservation law after each: the fail epoch must leave every
// surviving link balanced, and the revival reconciliation must restore
// the law on the retrained links.
func TestTimelineInvariantsAcrossRevive(t *testing.T) {
	sys := failRecoverSystem(t, 2, 0)
	net, err := sys.NewNetworkFor(core.AlgUGALL, core.Workload{Traffic: "ur"})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	net.SetLoad(0.3)
	step := func(until int) {
		t.Helper()
		for i := 0; i < until; i++ {
			if err := net.Step(); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
	}
	if got := net.ActiveEpoch(); got != 0 {
		t.Fatalf("epoch before any event: %d, want 0", got)
	}
	step(400) // past the fail event at cycle 200
	if got := net.ActiveEpoch(); got != 1 {
		t.Fatalf("epoch after fail event: %d, want 1", got)
	}
	if err := net.CheckFlowInvariants(); err != nil {
		t.Fatalf("invariants after fail epoch: %v", err)
	}
	if net.KilledInFlight() == 0 {
		t.Error("fail event killed nothing at load 0.3")
	}
	step(600) // past the recover event at cycle 800
	if got := net.ActiveEpoch(); got != 2 {
		t.Fatalf("epoch after recover event: %d, want 2", got)
	}
	if err := net.CheckFlowInvariants(); err != nil {
		t.Fatalf("invariants after revive reconciliation: %v", err)
	}
	step(400) // keep running on the recovered network
	if err := net.CheckFlowInvariants(); err != nil {
		t.Fatalf("invariants in steady state after recovery: %v", err)
	}
}

// TestOccupancyCountersAcrossRebuilds covers every place the engine
// rebuilds the occupancy counters its cycle pipeline skips idle routers,
// ports and links on: the shard partition, Restore, and each epoch swap
// of a timeline that kills a global channel, kills a router and revives
// the channel. On the 1K machine at UR 0.05 the sharded engine must end
// in the same snapshot as the serial one, a run restored mid-fault at a
// different shard count must end where the uninterrupted run does, and
// the flow invariants (the counter check included) must hold after
// every epoch swap and every restore.
func TestOccupancyCountersAcrossRebuilds(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 4, A: 8, H: 4, Seed: 5})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sched, err := fault.NewTimeline(5).
		FailChannelsAt(100, topology.ClassGlobal, 1).
		FailRouterAt(150, 37).
		RecoverChannelsAt(250, topology.ClassGlobal, 1).
		Compile(sys.Topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if sys, err = sys.WithTimeline(sched); err != nil {
		t.Fatalf("WithTimeline: %v", err)
	}
	const mid, end = 200, 400 // mid: router and channel down
	build := func(shards int) *sim.Network {
		t.Helper()
		net, err := sys.NewNetworkFor(core.AlgUGALLVCH, core.Workload{Traffic: "ur"})
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		if err := net.SetShards(shards); err != nil {
			t.Fatalf("SetShards(%d): %v", shards, err)
		}
		net.SetLoad(0.05)
		return net
	}
	run := func(name string, net *sim.Network, to int64) {
		t.Helper()
		for net.Now() < to {
			epoch := net.ActiveEpoch()
			if err := net.Step(); err != nil {
				t.Fatalf("%s: Step: %v", name, err)
			}
			if net.ActiveEpoch() != epoch {
				if err := net.CheckFlowInvariants(); err != nil {
					t.Fatalf("%s: after epoch %d: %v", name, net.ActiveEpoch(), err)
				}
			}
		}
	}
	snapshot := func(name string, net *sim.Network) []byte {
		t.Helper()
		b, err := net.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		return b
	}

	serial := build(1)
	run("serial", serial, end)
	if got := serial.ActiveEpoch(); got != 3 {
		t.Fatalf("serial run ended in epoch %d, want 3", got)
	}
	if serial.KilledInFlight() == 0 || serial.InFlight() == 0 {
		t.Fatalf("serial run killed %d packets and holds %d: the timeline hit no traffic",
			serial.KilledInFlight(), serial.InFlight())
	}
	want := snapshot("serial", serial)

	for _, k := range []int{2, 4} {
		name := fmt.Sprintf("shards=%d", k)
		net := build(k)
		run(name, net, end)
		if !bytes.Equal(snapshot(name, net), want) {
			t.Errorf("%s: final state differs from the serial engine's", name)
		}
	}

	for _, pair := range [][2]int{{1, 2}, {2, 4}} {
		name := fmt.Sprintf("resume %d->%d shards", pair[0], pair[1])
		src := build(pair[0])
		run(name, src, mid)
		snap := snapshot(name, src)
		dst := build(pair[1])
		if err := dst.Restore(snap); err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		if err := dst.CheckFlowInvariants(); err != nil {
			t.Fatalf("%s: after Restore: %v", name, err)
		}
		run(name, dst, end)
		if !bytes.Equal(snapshot(name, dst), want) {
			t.Errorf("%s: final state differs from the uninterrupted run's", name)
		}
	}
}

// TestWithTimelineRejections covers the misuse errors: combining a
// timeline with a standing fault plan, and attaching a schedule
// compiled against a different topology.
func TestWithTimelineRejections(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sched, err := fault.NewTimeline(1).FailChannelsAt(100, topology.ClassGlobal, 1).Compile(sys.Topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}

	plan := fault.NewPlan(1)
	plan.FailRandomChannels(sys.Topo, topology.ClassGlobal, 1)
	if _, err := sys.WithFaults(plan).WithTimeline(sched); err == nil {
		t.Error("timeline accepted alongside a static fault plan")
	}

	other, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := other.WithTimeline(sched); err == nil {
		t.Error("schedule compiled against another topology accepted")
	}

	cleared, err := sys.WithTimeline(nil)
	if err != nil {
		t.Fatalf("WithTimeline(nil): %v", err)
	}
	if cleared.Timeline() != nil {
		t.Error("WithTimeline(nil) did not clear the schedule")
	}

	ts, err := sys.WithTimeline(sched)
	if err != nil {
		t.Fatalf("WithTimeline: %v", err)
	}
	if ts.Timeline() != sched {
		t.Error("Timeline() does not return the attached schedule")
	}
	if _, err := ts.RunW(core.AlgMIN, core.Workload{Traffic: "ur"}, 0.1, sim.RunConfig{WarmupCycles: 100, MeasureCycles: 200, DrainCycles: 10000}); err != nil {
		t.Errorf("timeline run failed: %v", err)
	}
}
