package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
)

// worker pulls jobs off the queue until the server quits. Jobs already
// settled by a queued-state cancellation come off the queue terminal;
// begin rejects them and the worker moves on.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case <-s.quit:
			return
		case job := <-s.queue:
			s.runJob(job)
		}
	}
}

// runJob executes one job with the full hardening contract: a timeout
// context (the server default, shortened by the submission's
// timeout_ms), panic isolation (a crashing job becomes a structured
// failure; the worker and server survive), and error classification
// into the job's terminal states.
func (s *Server) runJob(job *Job) {
	timeout := s.cfg.JobTimeout
	if ms := job.Spec.TimeoutMS; ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; timeout <= 0 || d < timeout {
			timeout = d
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()

	if !job.begin(cancel) {
		return // canceled while queued; already terminal and accounted
	}
	s.journalRunning(job)

	report, panicked, err := s.executeIsolated(ctx, job)
	switch {
	case panicked:
		job.finishFailed("panic", err.Error(), 0, 0)
	case err == nil:
		s.cache.put(job.Hash, report)
		job.finishDone(report, false)
	default:
		var ce *sim.CanceledError
		cycle, inFlight := int64(0), 0
		if errors.As(err, &ce) {
			cycle, inFlight = ce.Cycle, ce.InFlight
		}
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			job.finishFailed("timeout",
				fmt.Sprintf("job exceeded its %v timeout: %v", timeout, err), cycle, inFlight)
		case errors.Is(err, context.Canceled):
			job.finishCanceled(err.Error(), cycle, inFlight)
		case errors.Is(err, sim.ErrBadSnapshot) && job.dropResume():
			// The recovery checkpoint was unusable (corrupt body, or a
			// machine drift the fingerprint caught). Transient by
			// definition: the job itself is fine — retry from scratch.
			s.retryJob(job, fmt.Sprintf("recovery checkpoint unusable (%v)", err))
		default:
			job.finishFailed("error", err.Error(), cycle, inFlight)
		}
	}
}

// executeIsolated runs execute under a recover barrier. A panic
// anywhere in the simulation stack is converted into an error carrying
// the stack trace, so one poisoned job can never take down the worker
// (which would strand the queue) or the process.
func (s *Server) executeIsolated(ctx context.Context, job *Job) (report []byte, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if s.testHook != nil {
		s.testHook(job)
	}
	report, err = s.execute(ctx, job)
	return report, false, err
}

// execute builds the simulation from the job's canonical spec and runs
// it, returning the marshaled versioned report. The spec was validated
// at submission, so errors here are simulation outcomes (stall,
// cancellation, timeout), not misconfiguration.
func (s *Server) execute(ctx context.Context, job *Job) ([]byte, error) {
	spec := job.Spec
	run, err := spec.Build()
	if err != nil {
		return nil, err
	}
	rc, rep := run.Config, run.Report

	switch spec.Kind {
	case KindRun:
		opts := []core.RunOption{core.WithContext(ctx)}
		if s.store != nil && spec.Window == 0 {
			// Durable server: checkpoint the engine periodically so a
			// crash resumes this job instead of restarting it. Windowed
			// runs are excluded — the live collector is not part of a
			// snapshot — and recover from scratch instead.
			id, hash := job.ID, job.Hash
			rc.CheckpointEvery = s.cfg.CheckpointEvery
			rc.CheckpointSink = func(snap []byte) error {
				if err := s.store.writeCheckpoint(id, hash, snap); err != nil && !errors.Is(err, errStoreClosed) {
					s.cfg.Logf("serve: job %s: write checkpoint: %v", id, err)
				}
				// Checkpointing is best-effort acceleration: a failed write
				// must not fail the run, it only means recovery starts
				// further back.
				return nil
			}
		}
		if snap := job.resumeSnapshot(); snap != nil {
			opts = append(opts, core.WithResume(snap))
		}
		if run.Windows != nil {
			opts = append(opts, core.WithCollector(&liveWindows{Windows: run.Windows, job: job}))
		}
		// The run itself is leaf work: it claims a slot on the shared
		// simulation pool so the server's workers and any co-resident
		// sweeps respect one machine-wide concurrency limit. The slot
		// wait aborts with the job's context.
		var res sim.Result
		var runErr error
		if err := s.pool.WorkCtx(ctx, func() {
			res, runErr = run.Sys.RunW(run.Algorithm, run.Workload, spec.Loads[0], rc, opts...)
		}); err != nil {
			return nil, fmt.Errorf("serve: canceled waiting for a simulation slot: %w", err)
		}
		if runErr != nil {
			return nil, runErr
		}
		rep.Points = []obs.Point{{Load: spec.Loads[0], Result: obs.MakeResult(res)}}
		if run.Windows != nil {
			rep.Windows = run.Windows.Windows()
		}

	case KindSweep:
		// SweepPoolW is a coordinator — it wraps its own leaf work in
		// pool.Work — so it must not itself run under a pool slot.
		// Completed points stream out as "point" events in load order.
		pts, err := run.Sys.SweepPoolW(s.pool, run.Algorithm, run.Workload, spec.Loads, rc, 2,
			core.WithContext(ctx),
			core.WithProgress(func(ev core.ProgressEvent) {
				job.publish(Event{Type: "point", Data: obs.Point{Load: ev.Load, Result: obs.MakeResult(ev.Result)}})
			}))
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			rep.Points = append(rep.Points, obs.Point{Load: p.Load, Result: obs.MakeResult(p.Result)})
		}
	}

	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// liveWindows wraps obs.Windows to stream each window to the job's SSE
// feed the moment it closes, instead of only embedding the series in
// the final report. The embedded collector does all the accumulation;
// the wrapper intercepts the two events that close windows (the cycle
// boundary and the finish flush) and publishes whatever newly appeared.
type liveWindows struct {
	*obs.Windows
	job  *Job
	sent int
}

// CycleEnd implements metrics.CycleObserver: close windows as usual,
// then stream any window that just closed.
func (l *liveWindows) CycleEnd(cycle int64) {
	l.Windows.CycleEnd(cycle)
	l.publishNew()
}

// Flush closes the trailing partial window (called by core on run
// finish) and streams it.
func (l *liveWindows) Flush(cycle int64) {
	l.Windows.Flush(cycle)
	l.publishNew()
}

func (l *liveWindows) publishNew() {
	wins := l.Windows.Windows()
	for ; l.sent < len(wins); l.sent++ {
		l.job.publish(Event{Type: "window", Data: wins[l.sent]})
	}
}
