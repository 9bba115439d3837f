package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dragonfly/internal/metrics"
)

// RunConfig controls one simulation run: the standard warm-up →
// tagged-measurement → drain methodology of Section 4.2 (packets injected
// during the measurement window are labelled, and the simulation runs
// until every labelled packet has left the system).
type RunConfig struct {
	// Load is the offered load in flits/cycle/terminal.
	Load float64
	// WarmupCycles runs the network to steady state before measuring.
	WarmupCycles int
	// MeasureCycles is the tagged-injection window length.
	MeasureCycles int
	// DrainCycles caps the drain phase; if tagged packets remain after
	// this many extra cycles the run is marked saturated.
	DrainCycles int
	// Histogram, when true, collects latency histograms (Figure 12).
	Histogram bool
	// HistWidth is the histogram bucket width in cycles (default 2).
	HistWidth int64
	// StallLimit aborts the run if no flit moves for this many cycles
	// while packets are in flight — a deadlock detector. Default 10000.
	StallLimit int64
	// CheckpointEvery, when > 0, captures a dfly-snap/1 checkpoint —
	// engine state plus the run's accumulated measurement state — every
	// CheckpointEvery cycles and hands it to CheckpointSink. Checkpoints
	// are taken between Steps (the same cycle-batch boundaries
	// cancellation observes), so they never see a half-applied cycle, and
	// resuming one via ResumeCtx finishes bit-identical to a run that was
	// never interrupted.
	CheckpointEvery int64
	// CheckpointSink receives each checkpoint's encoded bytes. A sink
	// error aborts the run with a phase-tagged error wrapping it — the
	// right behaviour both for unwritable checkpoint storage and for
	// callers that deliberately stop a run at its first checkpoint.
	CheckpointSink func(snapshot []byte) error
}

// Validate reports the first problem with the run parameters as a
// *ConfigError. RunCtx calls it before touching the network, so a NaN load
// or a non-positive measurement window is rejected up front instead of
// surfacing as a division by zero or a run that silently never injects.
// A zero warm-up is valid (deliberately cold-started stress tests use
// it); only negative phase lengths and an empty measurement window are
// not.
func (rc RunConfig) Validate() error {
	switch {
	case math.IsNaN(rc.Load) || math.IsInf(rc.Load, 0):
		return &ConfigError{Param: "Load", Value: fmt.Sprint(rc.Load), Reason: "load must be a finite fraction in [0,1]"}
	case rc.Load < 0 || rc.Load > 1:
		return &ConfigError{Param: "Load", Value: fmt.Sprint(rc.Load), Reason: "load is a fraction of channel capacity in [0,1]"}
	case rc.WarmupCycles < 0:
		return &ConfigError{Param: "WarmupCycles", Value: fmt.Sprint(rc.WarmupCycles), Reason: "warm-up must be >= 0 cycles"}
	case rc.MeasureCycles <= 0:
		return &ConfigError{Param: "MeasureCycles", Value: fmt.Sprint(rc.MeasureCycles), Reason: "the measurement window needs at least one cycle"}
	case rc.DrainCycles < 0:
		return &ConfigError{Param: "DrainCycles", Value: fmt.Sprint(rc.DrainCycles), Reason: "the drain cap must be >= 0 cycles"}
	case rc.HistWidth < 0:
		return &ConfigError{Param: "HistWidth", Value: fmt.Sprint(rc.HistWidth), Reason: "bucket width must be >= 0 (0 takes the default)"}
	case rc.StallLimit < 0:
		return &ConfigError{Param: "StallLimit", Value: fmt.Sprint(rc.StallLimit), Reason: "the stall horizon must be >= 0 (0 takes the default)"}
	case rc.CheckpointEvery < 0:
		return &ConfigError{Param: "CheckpointEvery", Value: fmt.Sprint(rc.CheckpointEvery), Reason: "the checkpoint interval must be >= 0 cycles (0 disables checkpointing)"}
	case rc.CheckpointEvery > 0 && rc.CheckpointSink == nil:
		return &ConfigError{Param: "CheckpointSink", Value: "nil", Reason: "a checkpoint interval needs a sink to receive the snapshots"}
	case rc.CheckpointSink != nil && rc.CheckpointEvery == 0:
		return &ConfigError{Param: "CheckpointEvery", Value: "0", Reason: "a checkpoint sink needs an interval (CheckpointEvery > 0)"}
	}
	return nil
}

// DefaultRunConfig returns measurement parameters suited to the 1K-node
// evaluation network.
func DefaultRunConfig(load float64) RunConfig {
	return RunConfig{
		Load:          load,
		WarmupCycles:  3000,
		MeasureCycles: 2000,
		DrainCycles:   30000,
		HistWidth:     2,
		StallLimit:    10000,
	}
}

// Result reports one run's measurements.
type Result struct {
	Summary
	// Hist, MinHist and NonminHist are latency histograms of measured
	// packets (nil unless RunConfig.Histogram).
	Hist, MinHist, NonminHist *Histogram
	// Cycles is the total number of simulated cycles.
	Cycles int64
	// DrainTimeout reports that tagged packets were still in flight when
	// the drain cap was reached — the usual saturation signature.
	DrainTimeout bool
	// Dropped is the number of packets abandoned during this run because
	// routing found no live path under the active fault plan (errors
	// wrapping ErrUnroutable). Always 0 on a pristine or still-connected
	// topology.
	Dropped int64
	// KilledInFlight is the number of packets destroyed by fault-timeline
	// epoch swaps during this run: flits caught on a channel that failed,
	// or buffered in a router that went down. Distinct from Dropped, which
	// counts routing-level give-ups on packets that were still intact.
	// Always 0 without a timeline.
	KilledInFlight int64
	// Rerouted is the number of queued packets an epoch swap re-pointed
	// at a new output after their previously chosen channel died. Always
	// 0 without a timeline.
	Rerouted int64
	// AliveTerminals is the number of terminals injecting under the
	// active fault plan; Accepted is normalised by it, so a degraded
	// network is judged on the capacity it still has.
	AliveTerminals int
}

// Phase positions as stored in a checkpoint's run section.
const (
	phaseWarmupIdx  = uint8(PhaseWarmup)
	phaseMeasureIdx = uint8(PhaseMeasure)
	phaseDrainIdx   = uint8(PhaseDrain)
)

// runState is the complete RunCtx measurement state — everything a
// snapshot of the engine does not already cover — carried in a
// checkpoint's run section so a resumed run continues the exact
// accumulator recurrences and phase position of the interrupted one.
type runState struct {
	// rc echoes the run parameters the checkpoint was taken under;
	// ResumeCtx refuses to continue under different ones.
	rc RunConfig
	// res accumulates the Result under construction (eject feeds its
	// accumulators and histograms).
	res Result
	// minCount and totalCount drive MinimalFraction.
	minCount, totalCount int64
	// dropped0, killed0 and rerouted0 are the run-start baselines the
	// finished Result's deltas are taken against.
	dropped0, killed0, rerouted0 int64
	// phaseIdx and iterDone are the position: iterDone cycles of phase
	// phaseIdx are complete.
	phaseIdx uint8
	iterDone int64
}

// eject folds one ejection into the run's accumulators, in the order
// the engine replays them (serial router order). Only packets injected
// inside the measurement window count.
func (st *runState) eject(e metrics.Eject) {
	if !e.Measured {
		return
	}
	lat := float64(e.Latency)
	st.res.Latency.Add(lat)
	st.totalCount++
	if e.Minimal {
		st.res.MinLatency.Add(lat)
		st.minCount++
		if st.res.MinHist != nil {
			st.res.MinHist.Add(e.Latency)
		}
	} else {
		st.res.NonminLatency.Add(lat)
		if st.res.NonminHist != nil {
			st.res.NonminHist.Add(e.Latency)
		}
	}
	if st.res.Hist != nil {
		st.res.Hist.Add(e.Latency)
	}
}

// RunCtx executes the full warm-up/measure/drain sequence on net and
// returns the measurements. The network keeps its state afterwards, so
// successive runs at increasing load on a fresh network per load point
// are the intended usage. The engine polls ctx at cycle-batch
// checkpoints (every few dozen cycles, between cycle bodies) in all
// three phases, and returns a *CanceledError — wrapping
// both ErrCanceled and the context's cause, tagged with the phase it
// stopped in — once ctx is done. The partial Result accompanies the
// error: measurements accumulated up to the checkpoint (latency
// accumulators, cycle count) are intact, because cancellation only
// observes state, never mutates it. The network itself is left a valid
// paused simulation; a fresh network re-run to completion is
// bit-identical to a run that was never canceled.
func RunCtx(ctx context.Context, net *Network, rc RunConfig) (Result, error) {
	if err := rc.Validate(); err != nil {
		return Result{}, err
	}
	normalizeRunConfig(&rc)
	st := &runState{rc: rc}
	st.res.Offered = rc.Load
	if rc.Histogram {
		st.res.Hist = NewHistogram(rc.HistWidth)
		st.res.MinHist = NewHistogram(rc.HistWidth)
		st.res.NonminHist = NewHistogram(rc.HistWidth)
	}
	return runPhases(ctx, net, rc, st, false)
}

// ResumeCtx continues a run from a checkpoint taken by a RunCtx with
// CheckpointEvery set. net must be freshly built over the same
// topology, configuration, routing, traffic and timeline the
// checkpoint's network had (any shard count), and rc must carry the
// same run parameters the checkpointed run was started with —
// CheckpointEvery and CheckpointSink are free to differ, so a resumed
// run can itself keep checkpointing. The finished Result is
// bit-identical to the uninterrupted run's.
//
// A snapshot that does not decode against net is a *SnapshotError
// (wrapping ErrBadSnapshot); on any error the network may hold
// partially restored state and must be discarded.
func ResumeCtx(ctx context.Context, net *Network, rc RunConfig, snap []byte) (Result, error) {
	if err := rc.Validate(); err != nil {
		return Result{}, err
	}
	normalizeRunConfig(&rc)
	rs, err := net.restore(snap, true)
	if err != nil {
		return Result{}, err
	}
	if c := rs.rc; math.Float64bits(c.Load) != math.Float64bits(rc.Load) ||
		c.WarmupCycles != rc.WarmupCycles || c.MeasureCycles != rc.MeasureCycles ||
		c.DrainCycles != rc.DrainCycles || c.Histogram != rc.Histogram ||
		c.HistWidth != rc.HistWidth || c.StallLimit != rc.StallLimit {
		return Result{}, &SnapshotError{Reason: fmt.Sprintf(
			"checkpointed run parameters (load %v, warmup %d, measure %d, drain %d, histogram %t/%d, stall %d) do not match the resume's (load %v, warmup %d, measure %d, drain %d, histogram %t/%d, stall %d)",
			c.Load, c.WarmupCycles, c.MeasureCycles, c.DrainCycles, c.Histogram, c.HistWidth, c.StallLimit,
			rc.Load, rc.WarmupCycles, rc.MeasureCycles, rc.DrainCycles, rc.Histogram, rc.HistWidth, rc.StallLimit)}
	}
	rs.rc = rc
	return runPhases(ctx, net, rc, rs, true)
}

// normalizeRunConfig applies the documented defaults (after Validate).
func normalizeRunConfig(rc *RunConfig) {
	if rc.StallLimit <= 0 {
		rc.StallLimit = 10000
	}
	if rc.HistWidth <= 0 {
		rc.HistWidth = 2
	}
}

// runPhases drives the warm-up/measure/drain sequence from st's phase
// position to completion. For a fresh run st starts at warm-up cycle 0;
// for a resumed one st and the network both sit exactly where the
// checkpoint was taken, so the first loop iteration re-fires that same
// checkpoint (bit-identical, harmless) and continues.
func runPhases(ctx context.Context, net *Network, rc RunConfig, st *runState, resumed bool) (Result, error) {
	net.run = st
	// Reset the measurement state on every exit path, error returns
	// included: a stall error inside the measurement loop must not leave
	// net.measuring/net.countWindow set (tagging warm-up packets and
	// corrupting window counts of any later run on this network), and the
	// run hook must never outlive the run whose Result it captures. The
	// hook is cleared first so no packet can be counted against a
	// half-reset window.
	prevCtx := net.ctx
	net.SetContext(ctx)
	defer func() {
		net.run = nil
		net.measuring = false
		net.countWindow = false
		net.SetContext(prevCtx)
	}()

	net.SetLoad(rc.Load)
	if !resumed {
		st.dropped0 = net.totalDropped()
		st.killed0 = net.killedInFlight
		st.rerouted0 = net.rerouted
		st.res.AliveTerminals = net.aliveTerms
	}
	stalled := func() bool {
		return net.totalInFlight() > 0 && net.now-net.maxLastMove() > rc.StallLimit
	}
	checkpoint := func(ph Phase, done int64) error {
		st.phaseIdx, st.iterDone = uint8(ph), done
		snap, err := net.snapshot(st)
		if err != nil {
			return fmt.Errorf("sim: %s phase: checkpoint: %w", ph, err)
		}
		if err := rc.CheckpointSink(snap); err != nil {
			return fmt.Errorf("sim: %s phase: checkpoint sink: %w", ph, err)
		}
		return nil
	}
	// phase runs one simulation phase from its start-th to its limit-th
	// cycle, stopping early when stop says so, and converts detector
	// trips and Step failures into phase-tagged errors. Checkpoints fire
	// between Steps, before the cycle that lands on the interval.
	phase := func(ph Phase, start, limit int64, stop func() bool) error {
		for i := start; i < limit; i++ {
			if stop != nil && stop() {
				return nil
			}
			if rc.CheckpointEvery > 0 && net.now > 0 && net.now%rc.CheckpointEvery == 0 {
				if err := checkpoint(ph, i); err != nil {
					return err
				}
			}
			if err := net.Step(); err != nil {
				var ce *CanceledError
				if errors.As(err, &ce) {
					ce.Phase = ph
				}
				return fmt.Errorf("sim: %s phase: %w", ph, err)
			}
			if stalled() {
				return net.stallError(ph, rc.StallLimit)
			}
		}
		return nil
	}

	// Warm-up.
	if st.phaseIdx == phaseWarmupIdx {
		if err := phase(PhaseWarmup, st.iterDone, int64(rc.WarmupCycles), nil); err != nil {
			return st.res, err
		}
		// Measurement setup. A resume into the measurement phase skips
		// this: the window flags and counters were restored with the
		// engine.
		net.measuring = true
		net.countWindow = true
		net.resetWindowCounts()
		st.phaseIdx, st.iterDone = phaseMeasureIdx, 0
	}

	// Measurement.
	if st.phaseIdx == phaseMeasureIdx {
		if err := phase(PhaseMeasure, st.iterDone, int64(rc.MeasureCycles), nil); err != nil {
			return st.res, err
		}
		net.measuring = false
		net.countWindow = false
		st.res.Accepted = float64(net.totalEjectedWindow()) / (float64(net.aliveTerms) * float64(rc.MeasureCycles))
		st.phaseIdx, st.iterDone = phaseDrainIdx, 0
	}

	// Drain every tagged packet. A resume into the drain phase keeps the
	// checkpointed Accepted: recomputing it here could disagree if a
	// timeline changed aliveTerms between the window's close and the
	// checkpoint.
	drained := func() bool { return net.totalOutstanding() <= 0 }
	if err := phase(PhaseDrain, st.iterDone, int64(rc.DrainCycles), drained); err != nil {
		return st.res, err
	}
	st.res.DrainTimeout = !drained()

	if st.totalCount > 0 {
		st.res.MinimalFraction = float64(st.minCount) / float64(st.totalCount)
	}
	st.res.Cycles = net.now
	st.res.Dropped = net.totalDropped() - st.dropped0
	st.res.KilledInFlight = net.killedInFlight - st.killed0
	st.res.Rerouted = net.rerouted - st.rerouted0
	st.res.Saturated = st.res.DrainTimeout || st.res.Accepted < rc.Load*0.95
	return st.res, nil
}
