package core_test

// Workload API equivalence and determinism tests — the PR 10 headline
// invariants. The registry-unified Workload path must (a) reproduce the
// default path bit for bit when it spells out the same computation
// (upper-case "UR" traffic + explicit bernoulli arrivals ≡
// core.Workload{Traffic: "ur"}), pinned transitively to the pre-refactor engine by the
// frozen golden constants; (b) keep the serial ≡ sharded promise for
// every stateful arrival process; and (c) keep the resume-from-snapshot
// ≡ uninterrupted promise with source state riding in dfly-snap/1,
// across shard-count changes in both directions.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// goldenHashW mirrors goldenHash, but spells every scenario's workload
// out — uppercase traffic family (canonicalisation is case-folded) plus
// an explicit "bernoulli" source — and runs it at the given shard
// count. Any draw-order difference between the
// registry bernoulli source and the engine's built-in Bernoulli gate
// shows up as a golden-hash mismatch.
func goldenHashW(t *testing.T, seed uint64, failGlobals bool, shards int) string {
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
		wl := core.Workload{Traffic: strings.ToUpper(r.wl.Traffic), Source: "bernoulli"}
		res, err := sys.RunW(r.alg, wl, r.load, goldenRC())
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, r.tag(), err)
		}
		hashResult(h, r.tag(), res)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestWorkloadLegacyEquivalenceGolden pins the redesign's
// backward-compatibility promise to the frozen constants: the registry
// path reproduces the pre-redesign goldens exactly, pristine and
// faulted, serial and sharded. A registry builder that consumed one
// extra RNG draw, reordered the gate/seed/dest draws, or case-folded
// differently would diverge here on the first packet.
func TestWorkloadLegacyEquivalenceGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fail   bool
		golden map[uint64]string
	}{
		{"pristine", false, goldenPristine},
		{"faulted", true, goldenFaulted},
	} {
		for seed, want := range tc.golden {
			for _, shards := range []int{0, 4} {
				if got := goldenHashW(t, seed, tc.fail, shards); got != want {
					t.Errorf("%s seed %d shards %d: registry workload hash %s, want legacy golden %s",
						tc.name, seed, shards, got, want)
				}
			}
		}
	}
}

// workloadScenario is one arrival process under test: how to build its
// Workload spec, on the 72-node example network.
type workloadScenario struct {
	name string
	wl   core.Workload
}

// testTrace builds a deterministic trace spanning the golden recipe's
// warm-up and measurement phases: one flow every third cycle, walking
// the 72 terminals round-robin with a +7 destination stride and a small
// varying packet count, so replay state (flow index + remaining count)
// is mid-flight at any checkpoint cycle.
func testTrace(t *testing.T) *workload.Trace {
	t.Helper()
	var b strings.Builder
	for c := 0; c < 1200; c += 3 {
		src := (c / 3) % 72
		dst := (src + 7) % 72
		fmt.Fprintf(&b, "%d %d %d %d\n", c, src, dst, 1+(c/3)%3)
	}
	tr, err := workload.ParseTrace([]byte(b.String()), 72)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	return tr
}

func workloadScenarios(t *testing.T) []workloadScenario {
	t.Helper()
	return []workloadScenario{
		{"onoff", core.Workload{Traffic: "ur", Source: "onoff",
			SourceParams: map[string]int{"on": 40, "off": 120}}},
		{"onoff-pareto", core.Workload{Traffic: "ur", Source: "onoff",
			SourceParams: map[string]int{"on": 40, "off": 120, "pareto": 1}}},
		{"drift", core.Workload{Traffic: "ur", Source: "drift",
			SourceParams: map[string]int{"hot": 3, "pct": 40, "period": 250}}},
		{"collective", core.Workload{Traffic: "ur", Source: "collective",
			SourceParams: map[string]int{"op": 2, "phaselen": 150}}},
		{"trace", core.Workload{Traffic: "ur", Source: "trace", Trace: testTrace(t)}},
	}
}

// TestShardedWorkloadMatchesSerial extends the serial ≡ sharded promise
// to every stateful arrival process: per-terminal source state is
// partitioned across shards, so a source that read a neighbouring
// shard's RNG or shared mutable state would diverge (or trip -race,
// under which CI runs this).
func TestShardedWorkloadMatchesSerial(t *testing.T) {
	for _, sc := range workloadScenarios(t) {
		run := func(shards int) (sim.Result, error) {
			sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: 1, Shards: shards})
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			return sys.RunW(core.AlgUGALLVCH, sc.wl, 0.3, goldenRC())
		}
		serial, err := run(0)
		if err != nil {
			t.Fatalf("%s: serial run: %v", sc.name, err)
		}
		sharded, err := run(4)
		if err != nil {
			t.Fatalf("%s: sharded run: %v", sc.name, err)
		}
		if got, want := resultHash(sharded), resultHash(serial); got != want {
			t.Errorf("%s: sharded hash %s, serial %s — arrival process is not shard-deterministic", sc.name, got, want)
		}
	}
}

// TestWorkloadRestoreEquivalence extends the resume ≡ uninterrupted
// matrix to stateful sources: a checkpoint taken mid-dwell (ON/OFF) or
// mid-flow (trace replay) and resumed on a fresh system — at a
// different shard count, both directions — must finish bit-identical.
// This is the proof that source state actually rides in the snapshot:
// a source that reset to cycle zero on restore would diverge
// immediately.
func TestWorkloadRestoreEquivalence(t *testing.T) {
	scenarios := []workloadScenario{
		{"onoff", core.Workload{Traffic: "ur", Source: "onoff",
			SourceParams: map[string]int{"on": 40, "off": 120}}},
		{"trace", core.Workload{Traffic: "ur", Source: "trace", Trace: testTrace(t)}},
	}
	build := func(seed uint64, shards int) *core.System {
		sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: seed, Shards: shards})
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		return sys
	}
	for _, sc := range scenarios {
		for _, seed := range []uint64{1, 2} {
			res, err := build(seed, 0).RunW(core.AlgUGALLVCH, sc.wl, 0.3, goldenRC())
			if err != nil {
				t.Fatalf("%s seed %d: uninterrupted run: %v", sc.name, seed, err)
			}
			want := resultHash(res)

			for _, pair := range []struct {
				snapShards, resShards int
				every                 int64 // mid-warm-up one way, mid-measurement the other
			}{
				{1, 4, 300},
				{4, 1, 700},
			} {
				var snap []byte
				_, err := build(seed, pair.snapShards).RunW(core.AlgUGALLVCH, sc.wl, 0.3, checkpointRC(pair.every, &snap))
				if !errors.Is(err, errStopAfterSnapshot) {
					t.Fatalf("%s seed %d %+v: capture run: %v, want the sink's sentinel", sc.name, seed, pair, err)
				}
				res, err := build(seed, pair.resShards).RunW(core.AlgUGALLVCH, sc.wl, 0.3, goldenRC(),
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

// TestWorkloadSnapshotRejectsDifferentSource pins the fingerprint scope:
// the source name and parameters are folded into the snapshot
// fingerprint, so a checkpoint taken under one arrival process refuses
// to resume under another instead of silently mixing state layouts.
func TestWorkloadSnapshotRejectsDifferentSource(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: 1})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	onoff := core.Workload{Traffic: "ur", Source: "onoff"}
	var snap []byte
	_, err = sys.RunW(core.AlgUGALLVCH, onoff, 0.3, checkpointRC(300, &snap))
	if !errors.Is(err, errStopAfterSnapshot) {
		t.Fatalf("capture run: %v", err)
	}
	// Different source family → different fingerprint.
	drift := core.Workload{Traffic: "ur", Source: "drift"}
	if _, err := sys.RunW(core.AlgUGALLVCH, drift, 0.3, goldenRC(), core.WithResume(snap)); !errors.Is(err, sim.ErrBadSnapshot) {
		t.Errorf("resume under drift source: %v, want sim.ErrBadSnapshot", err)
	}
	// Same family, different parameters → different fingerprint.
	tuned := core.Workload{Traffic: "ur", Source: "onoff", SourceParams: map[string]int{"on": 50}}
	if _, err := sys.RunW(core.AlgUGALLVCH, tuned, 0.3, goldenRC(), core.WithResume(snap)); !errors.Is(err, sim.ErrBadSnapshot) {
		t.Errorf("resume with retuned dwell: %v, want sim.ErrBadSnapshot", err)
	}
	// Built-in engine Bernoulli (no source) → different fingerprint.
	if _, err := sys.RunW(core.AlgUGALLVCH, core.Workload{Traffic: "ur"}, 0.3, goldenRC(), core.WithResume(snap)); !errors.Is(err, sim.ErrBadSnapshot) {
		t.Errorf("resume without a source: %v, want sim.ErrBadSnapshot", err)
	}
}
