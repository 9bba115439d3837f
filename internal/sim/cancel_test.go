package sim_test

// Cancellation tests: RunCtx must observe its context at cycle-batch
// checkpoints in every phase, return the typed *CanceledError with the
// partial-run snapshot, and never corrupt the network or the
// measurement state doing so.

import (
	"context"
	"errors"
	"testing"
	"time"

	"dragonfly/internal/metrics"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/traffic"
)

// cancelAt is a collector that cancels a context when the simulation
// reaches a given cycle — a deterministic cancellation trigger, unlike
// a timer.
type cancelAt struct {
	metrics.Nop
	cycle  int64
	cancel context.CancelFunc
}

func (c *cancelAt) CycleEnd(cycle int64) {
	if cycle >= c.cycle {
		c.cancel()
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	d := testDragonfly(t)
	net := newNet(t, d, testConfig(), routing.NewMIN(d), traffic.NewUniformRandom(d.Nodes()))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sim.RunCtx(ctx, net, sim.RunConfig{Load: 0.1, WarmupCycles: 500, MeasureCycles: 500, DrainCycles: 5000})
	if err == nil {
		t.Fatal("RunCtx with a pre-canceled context returned nil")
	}
	if !errors.Is(err, sim.ErrCanceled) {
		t.Errorf("error %v does not wrap sim.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not carry the context cause", err)
	}
	var ce *sim.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *sim.CanceledError", err)
	}
	if ce.Phase != sim.PhaseWarmup {
		t.Errorf("pre-canceled run stopped in %v, want warm-up", ce.Phase)
	}
	if net.Now() != 0 {
		t.Errorf("pre-canceled run advanced the network to cycle %d", net.Now())
	}
}

func TestRunCtxCancelMidRun(t *testing.T) {
	d := testDragonfly(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := newNet(t, d, testConfig(), routing.NewUGAL(d, routing.UGALLocalVCH), traffic.NewUniformRandom(d.Nodes()))
	const at = 300
	net.AttachMetrics(&cancelAt{cycle: at, cancel: cancel})
	res, err := sim.RunCtx(ctx, net, sim.RunConfig{Load: 0.2, WarmupCycles: 2000, MeasureCycles: 2000, DrainCycles: 20000})
	if err == nil {
		t.Fatal("mid-run cancel returned nil")
	}
	var ce *sim.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *sim.CanceledError", err)
	}
	// The checkpoint fires within one cycle batch of the trigger.
	if ce.Cycle < at || ce.Cycle > at+128 {
		t.Errorf("canceled at cycle %d, want within a checkpoint batch of %d", ce.Cycle, at)
	}
	if ce.Phase != sim.PhaseWarmup {
		t.Errorf("stopped in %v, want warm-up (canceled at cycle %d of a 2000-cycle warm-up)", ce.Phase, at)
	}
	if ce.InFlight <= 0 {
		t.Errorf("in-flight snapshot %d, want > 0 at load 0.2", ce.InFlight)
	}
	if res.Cycles != 0 {
		t.Errorf("partial result claims %d completed cycles", res.Cycles)
	}
	// The network is a valid paused simulation: with the cancellation
	// cleared, a fresh Run on the same network must complete.
	net.AttachMetrics(nil)
	if _, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.1, WarmupCycles: 100, MeasureCycles: 200, DrainCycles: 20000}); err != nil {
		t.Fatalf("run after a canceled run on the same network: %v", err)
	}
}

func TestRunCtxDeadline(t *testing.T) {
	d := testDragonfly(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	net := newNet(t, d, testConfig(), routing.NewUGAL(d, routing.UGALLocalVCH), traffic.NewWorstCase(d))
	// A run far longer than the deadline: the engine must notice.
	_, err := sim.RunCtx(ctx, net, sim.RunConfig{Load: 0.2, WarmupCycles: 50_000_000, MeasureCycles: 1000, DrainCycles: 20000})
	if err == nil {
		t.Fatal("RunCtx outlived a 1ms deadline")
	}
	if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v should wrap both ErrCanceled and DeadlineExceeded", err)
	}
}

func TestRunCtxBackgroundIsFree(t *testing.T) {
	d := testDragonfly(t)
	net := newNet(t, d, testConfig(), routing.NewMIN(d), traffic.NewUniformRandom(d.Nodes()))
	res, err := sim.RunCtx(context.Background(), net, sim.RunConfig{Load: 0.1, WarmupCycles: 200, MeasureCycles: 200, DrainCycles: 20000})
	if err != nil {
		t.Fatalf("RunCtx(Background): %v", err)
	}
	if res.Latency.Count() == 0 {
		t.Error("no packets measured")
	}
}
