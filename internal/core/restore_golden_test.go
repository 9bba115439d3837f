package core_test

// Restore-equivalence goldens: the PR 9 headline invariant. A run that
// is checkpointed at cycle C, killed, and resumed from the snapshot on
// a freshly built system must finish bit-identical to a run that was
// never interrupted — across pristine, statically faulted and
// transient-timeline configurations, three seeds, and with the
// checkpoint and the resume taken at different shard counts in both
// directions. The uninterrupted sides of the pristine and faulted
// scenarios are themselves pinned to frozen constants by the PR 3/6
// golden tests, so this matrix transitively pins the resumed runs to
// the pre-refactor engine too.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// errStopAfterSnapshot aborts a checkpoint-capture run once the sink
// has the snapshot it wanted — the in-process equivalent of killing the
// process at the checkpoint.
var errStopAfterSnapshot = errors.New("stop after first snapshot")

// checkpointRC is goldenRC with a checkpoint every `every` cycles whose
// sink keeps the first snapshot in *snap and stops the run.
func checkpointRC(every int64, snap *[]byte) sim.RunConfig {
	rc := goldenRC()
	rc.CheckpointEvery = every
	rc.CheckpointSink = func(b []byte) error {
		*snap = append([]byte(nil), b...)
		return errStopAfterSnapshot
	}
	return rc
}

// restoreScenario is one row of the matrix: how to build the system
// (at a given engine shard count) and which run to measure on it.
type restoreScenario struct {
	name  string
	build func(t *testing.T, seed uint64, shards int) *core.System
	alg   core.Algorithm
	wl    core.Workload
	load  float64
}

func restoreScenarios() []restoreScenario {
	return []restoreScenario{
		{
			name: "pristine",
			build: func(t *testing.T, seed uint64, shards int) *core.System {
				sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: seed, Shards: shards})
				if err != nil {
					t.Fatalf("NewSystem: %v", err)
				}
				return sys
			},
			alg: core.AlgUGALLVCH, wl: core.Workload{Traffic: "ur"}, load: 0.3,
		},
		{
			name: "faulted",
			build: func(t *testing.T, seed uint64, shards int) *core.System {
				sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: seed, Shards: shards})
				if err != nil {
					t.Fatalf("NewSystem: %v", err)
				}
				plan := fault.NewPlan(seed)
				plan.FailFraction(sys.Topo, topology.ClassGlobal, 0.10)
				return sys.WithFaults(plan)
			},
			alg: core.AlgMIN, wl: core.Workload{Traffic: "ur"}, load: 0.2,
		},
		{
			name:  "timeline",
			build: failRecoverSystem, // fail at 200, recover at 800: both checkpoints land mid-fault-epoch
			alg:   core.AlgUGALL, wl: core.Workload{Traffic: "ur"}, load: 0.25,
		},
	}
}

// resultHash folds one result the way the golden tests do.
func resultHash(res sim.Result) string {
	h := fnv.New64a()
	hashResult(h, fmt.Sprintf("killed=%d rerouted=%d", res.KilledInFlight, res.Rerouted), res)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRestoreEquivalenceGolden is the matrix: 3 seeds × 3 scenarios ×
// {(1,4),(4,1)} (snapshot shards, resume shards), with the interruption
// landing mid-warm-up in one shard direction and mid-measurement in the
// other.
func TestRestoreEquivalenceGolden(t *testing.T) {
	for _, sc := range restoreScenarios() {
		for _, seed := range []uint64{1, 2, 3} {
			want := resultHash(func() sim.Result {
				res, err := sc.build(t, seed, 0).RunW(sc.alg, sc.wl, sc.load, goldenRC())
				if err != nil {
					t.Fatalf("%s seed %d: uninterrupted run: %v", sc.name, seed, err)
				}
				return res
			}())

			for _, pair := range []struct {
				snapShards, resShards int
				every                 int64 // 300 is mid-warm-up, 700 mid-measurement (warmup 500, measure 500)
			}{
				{1, 4, 300},
				{4, 1, 700},
			} {
				var snap []byte
				_, err := sc.build(t, seed, pair.snapShards).RunW(sc.alg, sc.wl, sc.load, checkpointRC(pair.every, &snap))
				if !errors.Is(err, errStopAfterSnapshot) {
					t.Fatalf("%s seed %d %+v: capture run: %v, want the sink's sentinel", sc.name, seed, pair, err)
				}
				if len(snap) == 0 {
					t.Fatalf("%s seed %d %+v: no checkpoint captured", sc.name, seed, pair)
				}

				res, err := sc.build(t, seed, pair.resShards).RunW(sc.alg, sc.wl, sc.load, goldenRC(),
					core.WithResume(snap))
				if err != nil {
					t.Fatalf("%s seed %d %+v: resumed run: %v", sc.name, seed, pair, err)
				}
				if got := resultHash(res); got != want {
					t.Errorf("%s seed %d %+v: resumed hash %s, want uninterrupted %s", sc.name, seed, pair, got, want)
				}
			}
		}
	}
}

// TestResumeRejectsMismatchedSystem pins the fingerprint check at the
// core layer: a checkpoint resumed on a differently built system is a
// typed sim.ErrBadSnapshot, not a silently wrong simulation.
func TestResumeRejectsMismatchedSystem(t *testing.T) {
	sc := restoreScenarios()[0]
	var snap []byte
	_, err := sc.build(t, 1, 0).RunW(sc.alg, sc.wl, sc.load, checkpointRC(300, &snap))
	if !errors.Is(err, errStopAfterSnapshot) {
		t.Fatalf("capture run: %v", err)
	}

	// Different seed → different RNG universe → different fingerprint.
	if _, err := sc.build(t, 2, 0).RunW(sc.alg, sc.wl, sc.load, goldenRC(), core.WithResume(snap)); !errors.Is(err, sim.ErrBadSnapshot) {
		t.Errorf("resume on seed-2 system: %v, want sim.ErrBadSnapshot", err)
	}
	// Different fault plan → different liveness → different fingerprint.
	if _, err := restoreScenarios()[1].build(t, 1, 0).RunW(sc.alg, sc.wl, sc.load, goldenRC(), core.WithResume(snap)); !errors.Is(err, sim.ErrBadSnapshot) {
		t.Errorf("resume on faulted system: %v, want sim.ErrBadSnapshot", err)
	}
	// Different algorithm → different routing name → different fingerprint.
	if _, err := sc.build(t, 1, 0).RunW(core.AlgMIN, sc.wl, sc.load, goldenRC(), core.WithResume(snap)); !errors.Is(err, sim.ErrBadSnapshot) {
		t.Errorf("resume under MIN: %v, want sim.ErrBadSnapshot", err)
	}
}

// TestSweepRejectsCheckpointOptions pins the documented scope: a single
// run takes its checkpoints from the RunConfig it is given, and a sweep
// refuses both checkpoints and WithResume.
func TestSweepRejectsCheckpointOptions(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: 1})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	snapshots := 0
	rc := goldenRC()
	rc.CheckpointEvery = 100
	rc.CheckpointSink = func([]byte) error { snapshots++; return nil }
	res, err := sys.RunW(core.AlgMIN, core.Workload{Traffic: "ur"}, 0.1, rc)
	if err != nil {
		t.Fatalf("RunW with RunConfig checkpoints: %v", err)
	}
	if want := int(res.Cycles / 100); snapshots < want || want == 0 {
		t.Errorf("RunW took %d checkpoints over %d cycles, want at least %d", snapshots, res.Cycles, want)
	}
	snapshots = 0
	if _, err := sys.SweepW(core.AlgMIN, core.Workload{Traffic: "ur"}, []float64{0.1}, rc, 0); err == nil {
		t.Error("SweepW accepted RunConfig checkpoints")
	}
	if snapshots != 0 {
		t.Errorf("the refused sweep took %d checkpoints", snapshots)
	}
	if _, err := sys.SweepW(core.AlgMIN, core.Workload{Traffic: "ur"}, []float64{0.1}, goldenRC(), 0,
		core.WithResume([]byte("x"))); err == nil {
		t.Error("SweepW accepted WithResume")
	}
}
