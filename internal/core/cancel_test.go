package core_test

// Cancellation determinism: interrupting a run must never perturb the
// results of any other run. Cancellation is observed at cycle-batch
// checkpoints between cycle bodies and only reads engine state, so a
// run canceled at cycle C followed by a fresh uninterrupted run
// produces exactly the golden hash of a never-canceled run — the
// property the dfly-serve cache relies on to mix canceled, timed-out
// and completed jobs in one process.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
)

// cancelAtCycle cancels a context once the simulation reaches a cycle.
type cancelAtCycle struct {
	metrics.Nop
	cycle  int64
	cancel context.CancelFunc
}

func (c *cancelAtCycle) CycleEnd(cycle int64) {
	if cycle >= c.cycle {
		c.cancel()
	}
}

// runHash runs one pinned scenario to completion and hashes the result
// with the golden-test encoding.
func runHash(t *testing.T, sys *core.System) string {
	t.Helper()
	res, err := sys.RunW(core.AlgUGALLVCH, core.Workload{Traffic: "wc"}, 0.25, goldenRC())
	if err != nil {
		t.Fatalf("RunW: %v", err)
	}
	h := fnv.New64a()
	hashResult(h, "cancel-determinism", res)
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestCancellationDeterminism(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: 3})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	baseline := runHash(t, sys)

	// Cancel runs at several mid-run cycles, warm-up and measurement
	// phases both, then prove a fresh uninterrupted run still matches.
	for _, at := range []int64{100, 450, 700} {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := sys.RunW(core.AlgUGALLVCH, core.Workload{Traffic: "wc"}, 0.25, goldenRC(),
			core.WithContext(ctx),
			core.WithCollector(&cancelAtCycle{cycle: at, cancel: cancel}))
		cancel()
		if !errors.Is(err, sim.ErrCanceled) {
			t.Fatalf("cancel at cycle %d: err = %v, want sim.ErrCanceled in the chain", at, err)
		}
		var ce *sim.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("cancel at cycle %d: no *sim.CanceledError in %v", at, err)
		}
		if ce.Cycle < at {
			t.Errorf("cancel requested at cycle %d observed at %d (before the request)", at, ce.Cycle)
		}
		if got := runHash(t, sys); got != baseline {
			t.Errorf("after cancel at cycle %d: fresh run hash %s, want %s (cancellation mutated shared state)", at, got, baseline)
		}
	}
}

// TestSweepCancellation pins the partial-series contract: a canceled
// sweep returns the completed points plus an error wrapping
// sim.ErrCanceled, and a subsequent sweep is unaffected.
func TestSweepCancellation(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: 1})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	loads := []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35}
	full, err := sys.SweepW(core.AlgMIN, core.Workload{Traffic: "ur"}, loads, goldenRC(), 0)
	if err != nil {
		t.Fatalf("uninterrupted sweep: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled up front: every point fails fast, no wave dispatches twice
	pts, err := sys.SweepW(core.AlgMIN, core.Workload{Traffic: "ur"}, loads, goldenRC(), 0, core.WithContext(ctx))
	if err == nil {
		t.Fatal("canceled sweep returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled sweep error = %v, want context.Canceled in the chain", err)
	}
	if len(pts) != 0 {
		t.Errorf("pre-canceled sweep returned %d points, want 0", len(pts))
	}

	again, err := sys.SweepW(core.AlgMIN, core.Workload{Traffic: "ur"}, loads, goldenRC(), 0)
	if err != nil {
		t.Fatalf("sweep after canceled sweep: %v", err)
	}
	if len(again) != len(full) {
		t.Fatalf("sweep after cancel has %d points, want %d", len(again), len(full))
	}
	for i := range full {
		if full[i].Result.Latency.Mean() != again[i].Result.Latency.Mean() ||
			full[i].Result.Accepted != again[i].Result.Accepted {
			t.Errorf("point %d diverged after a canceled sweep", i)
		}
	}
}
