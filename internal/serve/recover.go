package serve

// Recovery and retry: how a durable Server turns a replayed journal
// back into live state, persists job outcomes as they happen, and
// re-executes jobs after transient failures.
//
// The recovery state machine, per replayed job (last journaled state →
// action):
//
//	done              → reload results/<hash>.json, restore terminal,
//	                    warm the cache; missing/unreadable result file
//	                    → re-enqueue (the journal record outran the
//	                    file; determinism makes the re-run identical)
//	failed, canceled  → restore terminal as recorded
//	queued, running   → re-enqueue, resuming a "run" job from
//	                    checkpoints/<id>.snap when one exists and names
//	                    this job's spec hash; otherwise from scratch
//
// A re-enqueued job whose checkpoint turns out to be unusable at
// execution time (the engine refuses it with sim.ErrBadSnapshot) drops
// the snapshot and retries from scratch through the backoff schedule
// below — a transient condition, not a job failure.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"time"
)

// terminalHook is the onTerminal callback of every accepted job:
// persist the outcome, then release the drain accounting. finishLocked
// invokes it with job.mu already held in this goroutine, so it reads
// the job's fields directly instead of taking the lock again. lead are
// records journaled in the same write, ahead of the terminal one.
func (s *Server) terminalHook(job *Job, lead ...record) func() {
	return func() {
		if s.store != nil {
			s.persistTerminalLocked(job, lead)
		}
		s.jobWG.Done()
	}
}

// persistTerminalLocked makes a terminal transition durable: the result
// file first (for done jobs), then the journal record, then the
// now-obsolete checkpoint is dropped. Write-ahead in that order on
// purpose — a journaled "done" whose result file is missing would
// replay into a silent gap, while a result file without its record
// merely re-runs to the identical bytes. When the result write fails
// only lead is journaled. Called with job.mu held.
func (s *Server) persistTerminalLocked(job *Job, lead []record) {
	if job.state == StateDone {
		if err := s.store.writeResult(job.Hash, job.report); err != nil {
			if !errors.Is(err, errStoreClosed) {
				s.cfg.Logf("serve: job %s: persist result: %v", job.ID, err)
			}
			s.journal(job, "accepted", true, lead...)
			return
		}
	}
	s.journal(job, "terminal state", true, append(lead, record{
		V: journalVersion, Type: recState, ID: job.ID, State: job.state,
		ErrKind: job.errKind, Err: job.errMsg, Cached: job.cached,
	})...)
	s.store.removeCheckpoint(job.ID)
}

// journal appends a job's records in one write, fsync'd when sync is
// set. A failure is logged, except on a detached store: a stopped or
// crashed server writes nothing more by design.
func (s *Server) journal(job *Job, what string, sync bool, recs ...record) {
	if s.store == nil || len(recs) == 0 {
		return
	}
	if err := s.store.appendRecords(sync, recs...); err != nil && !errors.Is(err, errStoreClosed) {
		s.cfg.Logf("serve: job %s: journal %s: %v", job.ID, what, err)
	}
}

// acceptedRecord is the journal record of a submission: the full spec,
// so replay can re-run the job.
func (s *Server) acceptedRecord(job *Job) record {
	spec := job.Spec
	return record{
		V: journalVersion, Type: recAccepted, ID: job.ID,
		TS: job.submitted.UnixMilli(), Spec: &spec, Hash: job.Hash,
	}
}

// journalRunning marks the start of execution. Purely informational for
// replay (queued and running recover identically), but it records how
// far each job got, which the quarantine and debugging paths care
// about. Not fsync'd for that reason: the job's next record, synced,
// makes it durable too, and a crash before then loses nothing replay
// needs.
func (s *Server) journalRunning(job *Job) {
	s.journal(job, "running", false, record{V: journalVersion, Type: recState, ID: job.ID, State: StateRunning})
}

// recoverJobs rebuilds the job table from the replayed journal. Runs in
// Open before the workers start and before the handler is reachable, so
// recovered jobs hold the head of the queue and no lock ordering is at
// stake yet.
func (s *Server) recoverJobs(rep *replayResult) {
	s.nextID = rep.maxID
	s.journalReplays = rep.records
	for _, id := range rep.order {
		rj := rep.jobs[id]
		switch rj.state {
		case StateDone:
			report, err := s.store.readResult(rj.hash)
			if err != nil {
				s.cfg.Logf("serve: recovery: job %s finished but its result file is unreadable (%v): re-running", id, err)
				s.requeueRecovered(rj, nil)
				continue
			}
			s.restoreTerminal(rj, report)
			s.cache.put(rj.hash, report)
		case StateFailed, StateCanceled:
			s.restoreTerminal(rj, nil)
		default: // queued or running: the dead process never settled it
			if report, ok := s.cache.get(rj.hash); ok {
				// An identical job already finished during this replay:
				// settle from the warm cache exactly as a submission would.
				s.finishRecoveredFromCache(rj, report)
				continue
			}
			var resume []byte
			if rj.spec.Kind == KindRun && rj.spec.Window == 0 {
				hash, snap, err := s.store.readCheckpoint(id)
				switch {
				case errors.Is(err, os.ErrNotExist):
					// Never checkpointed; from scratch.
				case err != nil:
					s.cfg.Logf("serve: recovery: job %s checkpoint unreadable (%v): re-running from scratch", id, err)
					s.store.removeCheckpoint(id)
				case hash != rj.hash:
					s.cfg.Logf("serve: recovery: job %s checkpoint belongs to another spec: re-running from scratch", id)
					s.store.removeCheckpoint(id)
				default:
					resume = snap
				}
			}
			s.requeueRecovered(rj, resume)
		}
	}
}

// restoreTerminal republishes a job the journal already settled. No
// drain accounting: the job needs no worker and can never transition
// again.
func (s *Server) restoreTerminal(rj *replayedJob, report []byte) {
	job := newJob(rj.id, rj.spec, rj.hash, nil)
	job.state = rj.state
	job.report = report
	job.cached = rj.cached
	job.errKind, job.errMsg = rj.errKind, rj.errMsg
	if rj.submitted > 0 {
		job.submitted = time.UnixMilli(rj.submitted)
	}
	s.mu.Lock()
	s.jobs[rj.id] = job
	s.order = append(s.order, rj.id)
	s.submitted++
	s.mu.Unlock()
}

// requeueRecovered puts an unfinished replayed job back on the queue,
// with full drain accounting — from here on it is indistinguishable
// from a freshly accepted job, except for the resume snapshot it may
// carry.
func (s *Server) requeueRecovered(rj *replayedJob, resume []byte) {
	job := s.recoveredJob(rj)
	job.resume = resume
	select {
	case s.queue <- job:
	default:
		// More recovered work than queue depth: a full queue is
		// backpressure, never a reason to drop an accepted job. Defer the
		// enqueue; the blocking retry lands it once the workers drain.
		s.deferEnqueue(job, retryDelay(1, job.ID))
	}
}

// finishRecoveredFromCache settles a recovered job from the result an
// identical job produced, the same way a submission cache hit would.
func (s *Server) finishRecoveredFromCache(rj *replayedJob, report []byte) {
	job := s.recoveredJob(rj)
	job.finishDone(report, true)
}

// recoveredJob builds and indexes a live replayed job.
func (s *Server) recoveredJob(rj *replayedJob) *Job {
	job := newJob(rj.id, rj.spec, rj.hash, nil)
	job.onTerminal = s.terminalHook(job)
	job.attempt = rj.attempt
	if rj.submitted > 0 {
		job.submitted = time.UnixMilli(rj.submitted)
	}
	s.jobWG.Add(1)
	s.mu.Lock()
	s.jobs[rj.id] = job
	s.order = append(s.order, rj.id)
	s.submitted++
	s.jobsRecovered++
	s.mu.Unlock()
	return job
}

// retryJob reschedules a job after a transient failure, with capped
// exponential backoff. Attempts past RetryMax fail the job for real.
func (s *Server) retryJob(job *Job, reason string) {
	attempt := job.bumpAttempt()
	s.mu.Lock()
	s.jobsRetried++
	max := s.cfg.RetryMax
	s.mu.Unlock()
	if max < 0 || attempt > max {
		job.finishFailed("error", fmt.Sprintf("%s (gave up after %d attempts)", reason, attempt), 0, 0)
		return
	}
	s.cfg.Logf("serve: job %s: %s: retry %d/%d", job.ID, reason, attempt, max)
	s.journal(job, "retry", true, record{V: journalVersion, Type: recRetry, ID: job.ID, Attempt: attempt})
	if !job.requeue() {
		// The client canceled while the retry was being arranged; settle
		// the cancellation instead of resurrecting the job.
		job.finishCanceled("canceled during retry", 0, 0)
		return
	}
	s.deferEnqueue(job, retryDelay(attempt, job.ID))
}

// retryDelay is the backoff schedule: 100ms doubling per attempt,
// capped at 30s, plus a deterministic per-(job, attempt) jitter so a
// herd of recovered jobs does not thunder back in lockstep.
func retryDelay(attempt int, id string) time.Duration {
	shift := uint(attempt - 1)
	if shift > 8 {
		shift = 8
	}
	d := 100 * time.Millisecond << shift
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", id, attempt)
	return d + time.Duration(h.Sum32()%64)*time.Millisecond
}

// deferEnqueue re-queues a job after delay. The timer is tracked so
// shutdown and the crash simulation can stop it; once fired, the send
// blocks until a queue slot frees or the server quits.
func (s *Server) deferEnqueue(job *Job, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return
	}
	s.retryTimers[job.ID] = time.AfterFunc(delay, func() {
		s.mu.Lock()
		delete(s.retryTimers, job.ID)
		s.mu.Unlock()
		select {
		case s.queue <- job:
		case <-s.quit:
			job.Cancel("server stopped before the deferred job could be queued")
		}
	})
}

// stopRetryTimers cancels every pending backoff timer. Timers that
// already fired are goroutines blocked on the queue send; closing quit
// releases them.
func (s *Server) stopRetryTimers() {
	s.mu.Lock()
	timers := s.retryTimers
	s.retryTimers = make(map[string]*time.Timer)
	s.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
}

// crashForTest simulates a SIGKILL for the recovery tests. The store
// detaches first — nothing that happens afterwards reaches disk, which
// is exactly the view a dead process leaves — then running jobs are cut
// off mid-cycle through the base context and the workers are joined so
// a test can reopen the data dir without racing the old process.
// Deliberately skipped: draining, jobWG, any terminal bookkeeping — a
// real SIGKILL runs none of them.
func (s *Server) crashForTest() {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return
	}
	s.crashed = true
	timers := s.retryTimers
	s.retryTimers = make(map[string]*time.Timer)
	s.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	if s.store != nil {
		s.store.detach()
	}
	s.baseCancel()
	close(s.quit)
	s.workerWG.Wait()
	close(s.steps)
	<-s.persisted
}
