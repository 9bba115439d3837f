// Package serve is the long-running simulation service behind
// cmd/dfly-serve: an HTTP/JSON façade over internal/core hardened for
// unattended operation. Jobs are validated at submission, queued onto a
// bounded queue (full queue → 429 + Retry-After, never an unbounded
// backlog), executed on a fixed worker set with per-job timeouts and
// panic isolation (a crashing job fails structurally; the server keeps
// serving), observable live over SSE, and answered from an LRU result
// cache when an identical job (by canonical hash — see JobSpec.Hash)
// already ran. Shutdown drains: in-flight jobs get a deadline to finish,
// then are canceled through the same context plumbing the engine
// observes at cycle-batch checkpoints, and the accounting guarantees no
// accepted job is ever silently lost.
//
// With Config.DataDir the server is additionally durable (see store.go
// and recover.go): accepted jobs and their state transitions are
// journaled write-ahead, finished reports are persisted content-
// addressed, running jobs checkpoint their engine state periodically,
// and a process restarted on the same directory replays the journal —
// finished jobs keep their exact result bytes, interrupted jobs
// re-enqueue and resume from their last checkpoint, bit-identical to
// never having crashed.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"context"

	"dragonfly/internal/parallel"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
	"dragonfly/internal/workload"
)

// Config parameterises a Server. Zero values take the stated defaults.
type Config struct {
	// QueueDepth bounds the submission queue (default 64). A full queue
	// rejects with 429 and a Retry-After hint — backpressure, not
	// buffering: memory stays bounded no matter how fast clients submit.
	QueueDepth int
	// Workers is the number of jobs executed concurrently (default 2).
	// Each worker's simulation work additionally respects the machine-
	// wide Pool, so Workers bounds jobs in flight while the pool bounds
	// simulations in flight.
	Workers int
	// JobTimeout caps each job's execution (default 2m; negative
	// disables). A submission's timeout_ms may shorten it, never extend.
	JobTimeout time.Duration
	// MaxBody caps a submission body in bytes (default 1 MiB).
	MaxBody int64
	// CacheSize is the result-cache capacity in reports (default 256;
	// negative disables caching).
	CacheSize int
	// Pool is the simulation worker pool (nil = parallel.Default()).
	Pool *parallel.Pool
	// Limits bounds what one submission may ask for. The zero value is
	// unlimited.
	Limits Limits
	// DataDir, when non-empty, makes the server durable: accepted jobs,
	// state transitions and results are journaled under it (write-ahead,
	// fsync'd before the submission is acknowledged), running "run" jobs
	// checkpoint their engine state every CheckpointEvery cycles, and a
	// server restarted on the same directory replays the journal —
	// finished jobs keep their exact result bytes, interrupted jobs
	// re-enqueue and resume from their last checkpoint. Empty (the
	// default) means fully in-memory.
	DataDir string
	// CheckpointEvery is the cycle interval between durable checkpoints
	// of running jobs (default 5000; only meaningful with DataDir).
	CheckpointEvery int64
	// RetryMax caps re-execution attempts after a transient failure —
	// an unusable recovery checkpoint, say (default 3; negative
	// disables retries).
	RetryMax int
	// Logf receives operational warnings: journal quarantines, failed
	// durable writes, recovery decisions. Default log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.MaxBody == 0 {
		c.MaxBody = 1 << 20
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.Pool == nil {
		c.Pool = parallel.Default()
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 5000
	}
	if c.RetryMax == 0 {
		c.RetryMax = 3
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is the simulation service: an http.Handler plus the worker set
// and queue behind it. Create with Open, serve via any http.Server, stop
// with Shutdown.
type Server struct {
	cfg   Config
	pool  *parallel.Pool
	mux   *http.ServeMux
	cache *cache

	// baseCtx parents every job context; baseCancel is the drain
	// deadline's hammer — it cancels all running jobs at once.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue    chan *Job
	quit     chan struct{} // closed to stop idle workers
	workerWG sync.WaitGroup
	jobWG    sync.WaitGroup // one count per accepted, non-terminal job

	// store is the durable state (nil for an in-memory server).
	store *store

	mu       sync.Mutex
	draining bool
	ready    bool // set once Open finished (journal replayed, workers up)
	crashed  bool // crashForTest ran; the server is a corpse
	jobs     map[string]*Job
	order    []string // submission order, for GET /v1/jobs
	nextID   uint64
	// retryTimers holds the pending backoff timers of deferred
	// re-executions, so shutdown and the crash simulation can stop them.
	retryTimers map[string]*time.Timer

	submitted int64
	rejected  int64 // 429s (backpressure), not validation failures

	journalReplays int64 // journal records replayed at startup
	jobsRecovered  int64 // jobs re-enqueued or re-finished by recovery
	jobsRetried    int64 // transient-failure re-executions scheduled

	// testHook, when set, runs inside each job's panic-isolation scope
	// just before execution — the load test injects a panicking job
	// through it.
	testHook func(*Job)
}

// Open builds a Server and starts its workers. With Config.DataDir it
// first replays the journal: jobs the previous process finished come
// back terminal with their exact result bytes (and warm the cache),
// jobs it had merely accepted are re-enqueued — resuming from their
// last engine checkpoint where one exists — before any new submission
// can jump the line.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		pool:        cfg.Pool,
		cache:       newCache(cfg.CacheSize),
		queue:       make(chan *Job, cfg.QueueDepth),
		quit:        make(chan struct{}),
		jobs:        make(map[string]*Job),
		retryTimers: make(map[string]*time.Timer),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	s.mux.HandleFunc("GET /v1/traffic", s.handleTraffic)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)

	if cfg.DataDir != "" {
		st, rep, err := openStore(cfg.DataDir, cfg.Logf)
		if err != nil {
			return nil, err
		}
		s.store = st
		s.recoverJobs(rep)
	}

	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server: new submissions are refused with 503,
// jobs already accepted get until ctx's deadline to finish, and past
// the deadline everything still alive is canceled — queued jobs
// directly, running jobs through their contexts, which the engine
// observes within one cycle batch. Shutdown returns once every
// accepted job has reached a terminal state and every worker has
// exited; no accepted job is ever lost. It is not safe to call
// Shutdown concurrently with itself.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(drained)
	}()

	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		// Deadline passed: settle queued jobs in place and cancel
		// running ones. Workers draining the queue will see the
		// already-terminal jobs and skip them.
		s.mu.Lock()
		for _, job := range s.jobs {
			job.Cancel("server shutting down")
		}
		s.mu.Unlock()
		s.baseCancel()
		<-drained
	}

	close(s.quit)
	s.workerWG.Wait()
	s.baseCancel()
	s.stopRetryTimers()
	if s.store != nil {
		s.store.detach()
	}
	return err
}

// --- submission -----------------------------------------------------

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var sub Submission
	if err := dec.Decode(&sub); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body over the %d-byte limit", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	spec, err := sub.Normalize(s.cfg.Limits)
	if err != nil {
		var re *RequestError
		if errors.As(err, &re) {
			writeError(w, re.Status, re.Msg)
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	hash := spec.Hash()

	// Cache hit: the job is born terminal — no queue slot, no worker.
	if report, ok := s.cache.get(hash); ok {
		job, ok := s.accept(spec, hash)
		if !ok {
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		s.index(job)
		s.journalAccepted(job)
		job.finishDone(report, true)
		writeJSON(w, http.StatusOK, job.Status())
		return
	}

	job, ok := s.accept(spec, hash)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	select {
	case s.queue <- job:
		s.index(job)
		s.journalAccepted(job)
		writeJSON(w, http.StatusAccepted, job.Status())
	default:
		// Refused: the job was never indexed, so nothing else holds a
		// reference — releasing its drain count here is the only Done it
		// will ever get.
		s.jobWG.Done()
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d pending): retry later", s.cfg.QueueDepth))
	}
}

// accept creates a job and takes its drain count under the submission
// lock. The draining check and the jobWG increment happen atomically,
// so Shutdown can never begin waiting between a job's acceptance and
// its accounting: once draining is set, no new count appears. The job
// is not yet visible to clients or to Shutdown's cancel loop — index
// publishes it once its fate (queued, or born-cached done) is settled;
// a job refused by a full queue is never published at all.
func (s *Server) accept(spec JobSpec, hash string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	s.jobWG.Add(1)
	job := newJob(id, spec, hash, nil)
	job.onTerminal = s.terminalHook(job)
	return job, true
}

// index publishes an accepted job to the lookup and listing tables.
func (s *Server) index(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.submitted++
}

// --- queries --------------------------------------------------------

func (s *Server) lookup(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[r.PathValue("id")]
	return job, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].Status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	job.Cancel("canceled by client")
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := job.Status()
	if st.State != StateDone {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("job is %s: the report exists only for state %q", st.State, StateDone))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(job.Report())
}

// handleEvents streams the job's lifecycle as server-sent events: an
// immediate "state" snapshot, then live "state"/"window"/"point" events
// until the job goes terminal or the client disconnects. A slow client
// never stalls the simulation — events overflowing the subscriber
// buffer are dropped and counted.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	ch, snap := job.subscribe(64)
	defer job.unsubscribe(ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, Event{Type: "state", Data: snap})
	fl.Flush()

	for {
		select {
		case ev, open := <-ch:
			if !open {
				return // terminal transition closed the feed
			}
			writeSSE(w, ev)
			fl.Flush()
		case <-r.Context().Done():
			return // client went away; unsubscribe drops the buffer
		}
	}
}

func writeSSE(w http.ResponseWriter, ev Event) {
	data, err := json.Marshal(ev.Data)
	if err != nil {
		data = []byte(`{"error":"unencodable event"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
}

// --- introspection --------------------------------------------------

// Stats is the GET /v1/stats payload.
type Stats struct {
	Submitted   int64         `json:"submitted"`
	Rejected    int64         `json:"rejected_429"`
	ByState     map[State]int `json:"by_state"`
	QueueLen    int           `json:"queue_len"`
	QueueDepth  int           `json:"queue_depth"`
	Workers     int           `json:"workers"`
	Draining    bool          `json:"draining"`
	Ready       bool          `json:"ready"`
	CacheSize   int           `json:"cache_entries"`
	CacheHits   int64         `json:"cache_hits"`
	CacheMisses int64         `json:"cache_misses"`
	// CacheEvictions counts reports pushed out of the LRU by capacity.
	CacheEvictions int64 `json:"cache_evictions"`
	// Durable reports whether the server runs with a DataDir; the
	// counters below are only ever non-zero when it does.
	Durable bool `json:"durable"`
	// JournalReplays counts journal records replayed at startup.
	JournalReplays int64 `json:"journal_records_replayed"`
	// JobsRecovered counts jobs the replay re-enqueued or re-finished.
	JobsRecovered int64 `json:"jobs_recovered"`
	// JobsRetried counts transient-failure re-executions scheduled.
	JobsRetried int64 `json:"jobs_retried"`
	// RecordsQuarantined counts corrupt journal lines moved aside.
	RecordsQuarantined int64 `json:"records_quarantined"`
}

func (s *Server) stats() Stats {
	s.mu.Lock()
	st := Stats{
		Submitted:      s.submitted,
		Rejected:       s.rejected,
		ByState:        make(map[State]int),
		QueueLen:       len(s.queue),
		QueueDepth:     s.cfg.QueueDepth,
		Workers:        s.cfg.Workers,
		Draining:       s.draining,
		Ready:          s.ready && !s.draining,
		Durable:        s.store != nil,
		JournalReplays: s.journalReplays,
		JobsRecovered:  s.jobsRecovered,
		JobsRetried:    s.jobsRetried,
	}
	for _, job := range s.jobs {
		st.ByState[job.Status().State]++
	}
	s.mu.Unlock()
	st.CacheSize, st.CacheHits, st.CacheMisses, st.CacheEvictions = s.cache.counters()
	if s.store != nil {
		st.RecordsQuarantined = s.store.quarantinedCount()
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// handleTopologies lists the topology registry: every family with its
// parameter schema, enough for a client to compose a valid "topology"
// stanza without guessing.
func (s *Server) handleTopologies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"topologies": topology.Families.List()})
}

// handleTraffic lists both halves of the workload registry: traffic
// families (where packets go, the "traffic"/"traffic_params" stanza)
// and arrival-process families (when they are offered, the
// "workload"/"workload_params" stanza), each with its parameter schema.
func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traffic": traffic.Families.List(), "workloads": workload.Families.List()})
}

// handleHealth is the liveness probe: 200 for as long as the process
// serves HTTP at all, draining or not. Whether the server should
// receive traffic is /readyz's question.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 503 until startup (including the
// journal replay of a durable server) has finished, and 503 again once
// draining begins — the signal for a load balancer to stop routing
// new work here while the process stays alive to finish what it has.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready, draining := s.ready, s.draining
	s.mu.Unlock()
	switch {
	case draining:
		writeError(w, http.StatusServiceUnavailable, "draining")
	case !ready:
		writeError(w, http.StatusServiceUnavailable, "starting: journal replay in progress")
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// --- JSON plumbing --------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": strconv.Itoa(status)})
}
