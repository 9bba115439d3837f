package core

import (
	"context"

	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
)

// RunOption customises System.RunW, SweepW and SweepPoolW without
// positional plumbing: observability and progress reporting attach as
// trailing options, and call sites that want neither stay unchanged.
type RunOption func(*runOptions)

type runOptions struct {
	ctx       context.Context
	collector metrics.Collector
	progress  func(ProgressEvent)
	source    sim.Source
	resume    []byte
}

// context returns the option's context, Background when none was set.
func (o *runOptions) context() context.Context {
	if o.ctx != nil {
		return o.ctx
	}
	return context.Background()
}

// ProgressEvent reports one completed load point to a WithProgress
// callback.
type ProgressEvent struct {
	Algorithm Algorithm
	// Label names the workload (Workload.Label).
	Label string
	Load  float64
	// Index counts completed points (in load order) and Total the
	// points requested; a single RunW reports 0 of 1.
	Index, Total int
	Result       sim.Result
}

// WithContext makes the run cancelable: the engine observes ctx at
// cycle-batch checkpoints and the call returns a typed error wrapping
// sim.ErrCanceled (and the context cause — context.Canceled or
// DeadlineExceeded) once ctx is done. Under SweepW/SweepPoolW every
// in-flight load point observes the same context, queued waves are
// skipped, and the points completed before the cancellation are
// returned alongside the error — the same partial-series contract as
// any other failing sweep. Cancellation only observes simulation state;
// re-running the same configuration to completion is bit-identical to
// an uninterrupted run.
func WithContext(ctx context.Context) RunOption {
	return func(o *runOptions) { o.ctx = ctx }
}

// WithCollector attaches c to every network the call builds, for the
// whole run (warm-up included); combine several collectors, such as
// obs.Windows and obs.Tracer, with metrics.Multi. Under
// SweepW/SweepPoolW the same collector observes every load point — and
// with more than one pool worker, concurrently; share a collector
// across sweep points only if it is synchronised or the pool runs one
// job.
func WithCollector(c metrics.Collector) RunOption {
	return func(o *runOptions) { o.collector = c }
}

// WithProgress registers a callback invoked after each load point
// completes. Under SweepPoolW the callback runs on the caller's
// goroutine, serially and in load order, regardless of how the points
// were scheduled — no synchronisation needed inside it.
func WithProgress(fn func(ProgressEvent)) RunOption {
	return func(o *runOptions) { o.progress = fn }
}

// WithSource installs src as the arrival process of every network the
// call builds, overriding the workload's registry-built source. This is
// the hook for programmatic sources the registry cannot express —
// composite ones like workload.MultiTenant. The source must satisfy the
// determinism and snapshot obligations documented on sim.Source; under
// SweepW/SweepPoolW the same source value drives every load point, so a
// stateful source should only be swept with one pool job (or a stateless
// source used instead).
func WithSource(src sim.Source) RunOption {
	return func(o *runOptions) { o.source = src }
}

// WithResume starts the run from a checkpoint captured by a
// RunConfig.CheckpointSink instead of from cycle 0. The run must be
// configured identically to the checkpointed one (same system, load,
// algorithm, pattern, faults and timeline; the shard count is free to
// differ), and finishes bit-identical to the uninterrupted run. A
// snapshot that does not match is a typed error wrapping
// sim.ErrBadSnapshot. Applies to single runs only, like checkpointing:
// SweepW/SweepPoolW reject both, because a sweep is many runs and one
// snapshot stream would interleave them.
func WithResume(snapshot []byte) RunOption {
	return func(o *runOptions) { o.resume = snapshot }
}

func applyOptions(opts []RunOption) runOptions {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// flusher is the finish hook a collector may implement to close
// trailing partial state when the run it observed ends — obs.Windows
// uses it to emit the final short window. Flush must be idempotent for
// the same cycle (runWith flushes on finish, and callers that already
// flush by hand keep working).
type flusher interface {
	Flush(cycle int64)
}

// flushSinks walks a collector (recursing into metrics.Multi) and
// flushes every element that implements the finish hook.
func flushSinks(c metrics.Collector, cycle int64) {
	if m, ok := c.(metrics.Multi); ok {
		for _, e := range m {
			flushSinks(e, cycle)
		}
		return
	}
	if f, ok := c.(flusher); ok {
		f.Flush(cycle)
	}
}
