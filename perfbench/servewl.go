package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/obs"
	"dragonfly/internal/serve"
	"dragonfly/internal/sim"
)

// serveSession configures one durable dfly-serve session: an untimed
// first server finishes `written` jobs into a fresh data directory, the
// server is restarted `restarts` times on that directory (each restart
// replays the journal and warms the cache), and two closed-loop
// clients then run `jobs` jobs against the last one, in rounds of
// `round` jobs. Between restarts and between rounds nothing is in
// flight, and the reference kernel is timed (hostspeed.go).
type serveSession struct {
	name     string
	written  int
	restarts int
	jobs     int
	round    int
}

// jobMix is the job sequence. Job i is the same submission for a given
// seed whichever client sends it, and its kind depends on i alone, so
// every seed runs the same mix.
//
// The job shapes follow the service's own load test
// (internal/serve/load_test.go: loadSubmission, and the windowed jobs
// of TestServerLoadRestart): MIN routing under UR on the 72-node
// dragonfly (p=2, a=4, h=2), 50 warm-up, 50 measured and at most 1000
// drain cycles, run loads 0.05 to 0.16 in steps of 0.01; job i is a
// sweep over loads 0.05 and 0.1 when i%8 == 0, and a run at load 0.07
// with window-25 telemetry when i%10 == 3. These loads are far below
// MIN/UR saturation: no job runs out its drain budget. Unlike the load
// test, every fresh job draws a new seed, and three jobs in twenty
// repeat an earlier job exactly. That repeat share is an assumption:
// nothing in the repository measures how often clients resubmit a
// spec. Each run reports the measured shares of repeats and of
// saturated jobs.
type jobMix struct {
	mu   sync.Mutex
	rng  sim.RNG
	subs [][]byte // JSON bodies, by sequence number
}

func newJobMix(seed uint64) *jobMix {
	return &jobMix{rng: sim.NewRNG(seed, 3)}
}

// isRepeat reports whether job i repeats an earlier job: 15% of jobs,
// at positions that never coincide with the load test's sweeps and
// windowed runs.
func isRepeat(i int) bool {
	switch i % 20 {
	case 6, 11, 17:
		return true
	}
	return false
}

// next returns the next sequence number and body, and whether the body
// repeats an earlier job's.
func (m *jobMix) next() (int, []byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := len(m.subs)
	var body []byte
	repeat := isRepeat(i)
	if repeat {
		body = m.subs[m.rng.Intn(i)]
	} else {
		body = m.fresh(i)
	}
	m.subs = append(m.subs, body)
	return i, body, repeat
}

// fresh draws job i's submission with a seed no earlier job used.
func (m *jobMix) fresh(i int) []byte {
	sub := serve.Submission{
		Kind:      serve.KindRun,
		Topology:  serve.TopologySpec{P: 2, A: 4, H: 2},
		Algorithm: "MIN",
		Pattern:   "UR",
		Seed:      m.rng.Next()>>1 | 1,
		Load:      0.05 + 0.01*float64(m.rng.Intn(12)),
		Run:       serve.RunSpec{Warmup: 50, Measure: 50, Drain: 1000},
	}
	switch {
	case i%8 == 0:
		sub.Kind, sub.Load, sub.Loads = serve.KindSweep, 0, []float64{0.05, 0.1}
	case i%10 == 3:
		sub.Load, sub.Window = 0.07, 25
	}
	b, err := json.Marshal(sub)
	if err != nil {
		panic(err) // a plain struct always encodes
	}
	return b
}

// jobRecord is what a client observed for one job.
type jobRecord struct {
	seq              int
	body             []byte
	repeat           bool // the mix drew it as a repeat of an earlier job
	hash             string
	cached           bool
	report           []byte
	admit, submitted time.Time // POST sent, response read
	running, done    time.Time // zero when the feed never showed them
	reportRTT        time.Duration
	total            time.Duration
	err              error
}

// client is one closed-loop client on its own keep-alive connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr}}
}

// do runs one job: POST it, follow its SSE feed until the feed
// closes, then GET the report.
func (c *client) do(seq int, body []byte, repeat bool) jobRecord {
	r := jobRecord{seq: seq, body: body, repeat: repeat, admit: time.Now()}
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	r.submitted = time.Now()
	switch {
	case err != nil:
		r.err = fmt.Errorf("submit: %w", err)
		return r
	case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return r
	}
	r.hash, r.cached = st.Hash, st.Cached
	final, err := c.follow(st.ID, &r)
	if err != nil {
		r.err = err
		return r
	}
	if final != serve.StateDone {
		r.err = fmt.Errorf("job %s ended %s", st.ID, final)
		return r
	}
	t := time.Now()
	resp, err = c.http.Get(c.base + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		r.err = err
		return r
	}
	r.report, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.reportRTT = time.Since(t)
	r.total = time.Since(r.admit)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("report: HTTP %d", resp.StatusCode)
	}
	r.err = err
	return r
}

// follow reads the job's SSE feed to its end, noting when it first
// showed the job running and when it showed a terminal state.
func (c *client) follow(id string, r *jobRecord) (serve.State, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var final serve.State
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "state" {
			continue
		}
		var st serve.Status
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		now := time.Now()
		switch st.State {
		case serve.StateRunning:
			if r.running.IsZero() {
				r.running = now
			}
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			final, r.done = st.State, now
		}
	}
	return final, sc.Err()
}

// serveRun is the outcome of a session.
type serveRun struct {
	setups   []float64   // restart (Open) seconds
	records  []jobRecord // journal-writing jobs first, then the timed ones
	written  int
	rounds   []jobRound
	elapsed  time.Duration // the closed loop's rounds together
	stats    serve.Stats
	replayed int64
}

// jobRound is one round of the timed closed loop.
type jobRound struct {
	recs    []jobRecord
	elapsed time.Duration
}

// runSession runs a serve session in dir with the job mix from seed.
func (e *env) runSession(cfg serveSession, dir string, mix *jobMix) (*serveRun, error) {
	// One job worker: the second CPU serves HTTP, SSE and the journal,
	// and the two clients' jobs queue behind each other. Sweeps still
	// run their points on the server's pool of NumCPU threads.
	scfg := serve.Config{DataDir: dir, Workers: 1, Logf: func(f string, a ...any) {
		fmt.Fprintf(os.Stderr, "serve: "+f+"\n", a...)
	}}
	root := e.spans.begin(0, "", cfg.name)
	defer e.spans.end(root)
	out := &serveRun{}

	// The first server writes the journal the restarts replay.
	wid := e.spans.begin(root, "", "write_journal")
	srv, err := serve.Open(scfg)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	ts := httptest.NewServer(srv)
	recs := e.closedLoop(wid, ts.URL, mix, cfg.written)
	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	e.spans.end(wid)
	out.records = append(out.records, recs...)

	for i := 0; i < cfg.restarts; i++ {
		t := time.Now()
		srv, err = serve.Open(scfg)
		if err != nil {
			return nil, fmt.Errorf("reopen %s: %w", dir, err)
		}
		t1 := time.Now()
		e.spans.record(root, "", "serve.Open(replay)", t, t1)
		out.setups = append(out.setups, t1.Sub(t).Seconds())
		e.calibrate(2)
		if i < cfg.restarts-1 {
			if err := srv.Shutdown(context.Background()); err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
		}
	}
	st, err := statsOf(srv)
	if err != nil {
		return nil, err
	}
	out.replayed = st.JournalReplays
	out.written = len(out.records)

	tid := e.spans.begin(root, "", "timed")
	ts = httptest.NewServer(srv)
	for left := cfg.jobs; left > 0; left -= cfg.round {
		t := time.Now()
		recs := e.closedLoop(tid, ts.URL, mix, min(left, cfg.round))
		d := time.Since(t)
		out.rounds = append(out.rounds, jobRound{recs: recs, elapsed: d})
		out.elapsed += d
		out.records = append(out.records, recs...)
		e.calibrate(1)
	}
	ts.Close()
	e.spans.end(tid)
	if out.stats, err = statsOf(srv); err != nil {
		return nil, err
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return out, nil
}

// statsOf reads the server's GET /v1/stats.
func statsOf(srv *serve.Server) (serve.Stats, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serve.Stats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: HTTP %d", rec.Code)
	}
	err := json.Unmarshal(rec.Body.Bytes(), &st)
	return st, err
}

// closedLoop runs two clients against the server at url over loopback,
// each sending its next job when the previous one completed, until
// `jobs` jobs have been sent, and returns when all have completed.
func (e *env) closedLoop(parent int64, url string, mix *jobMix, jobs int) []jobRecord {
	var mu sync.Mutex
	var recs []jobRecord
	sent := 0
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if sent >= jobs {
			return false
		}
		sent++
		return true
	}
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(url)
			defer c.http.CloseIdleConnections()
			for more() {
				r := c.do(mix.next())
				e.jobSpans(parent, r)
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// jobSpans records one job's spans; they share the job's id.
func (e *env) jobSpans(parent int64, r jobRecord) {
	if e.spans == nil || r.err != nil {
		return
	}
	job := fmt.Sprintf("job%d", r.seq)
	end := r.admit.Add(r.total)
	id := e.spans.record(parent, job, "job", r.admit, end)
	e.spans.record(id, job, "http.POST /v1/jobs", r.admit, r.submitted)
	if !r.running.IsZero() {
		e.spans.record(id, job, "serve.queued", r.submitted, r.running)
		e.spans.record(id, job, "serve.running", r.running, r.done)
	}
	e.spans.record(id, job, "http.GET report", end.Add(-r.reportRTT), end)
}

// --- checks -----------------------------------------------------------

// checkReports counts every job as an operation: it fails when the
// job failed or its report differs from the first report of the same
// spec hash. It returns that first job of each hash, for verifyDirect.
func (e *env) checkReports(recs []jobRecord) map[string]jobRecord {
	first := map[string]jobRecord{}
	for _, r := range recs {
		if r.err != nil {
			e.op(fmt.Errorf("job %d: %w", r.seq, r.err))
			continue
		}
		f, seen := first[r.hash]
		if !seen {
			first[r.hash] = r
			e.op(nil)
			continue
		}
		var err error
		if !bytes.Equal(r.report, f.report) {
			err = fmt.Errorf("job %d: report of repeated spec %s differs from job %d's", r.seq, r.hash, f.seq)
		}
		e.op(err)
	}
	return first
}

// directRun is one spec's run through core, for verification.
type directRun struct {
	hash  string
	spec  serve.JobSpec
	net   netSpec
	rc    sim.RunConfig
	sweep bool
}

func toDirect(r jobRecord) (directRun, error) {
	d := directRun{hash: r.hash}
	var sub serve.Submission
	if err := json.Unmarshal(r.body, &sub); err != nil {
		return d, err
	}
	spec, err := sub.Normalize(serve.Limits{})
	if err != nil {
		return d, err
	}
	d.spec = spec
	d.sweep = spec.Kind == serve.KindSweep
	d.rc = sim.RunConfig{WarmupCycles: spec.Warmup, MeasureCycles: spec.Measure, DrainCycles: spec.Drain}
	d.net = netSpec{
		label: "serve job " + r.hash[:12],
		cfg:   core.SystemConfig{Topology: spec.Family, TopoParams: spec.Params, BufDepth: spec.BufDepth, Seed: spec.Seed},
		alg:   core.Algorithm(spec.Algorithm),
		wl: core.Workload{Traffic: spec.Traffic, TrafficParams: spec.TrafficParams,
			Source: spec.Source, SourceParams: spec.SourceParams},
		load: spec.Loads[0],
	}
	return d, nil
}

// expect runs a direct spec through core and returns its report
// points as JSON.
func (d directRun) expect(res *sim.Result) ([]byte, error) {
	var pts []obs.Point
	if d.sweep {
		sys, err := core.NewSystem(d.net.cfg)
		if err != nil {
			return nil, err
		}
		sw, err := sys.SweepW(d.net.alg, d.net.wl, d.spec.Loads, d.rc, 2)
		if err != nil {
			return nil, err
		}
		for _, p := range sw {
			pts = append(pts, obs.Point{Load: p.Load, Result: obs.MakeResult(p.Result)})
		}
	} else {
		pts = []obs.Point{{Load: d.spec.Loads[0], Result: obs.MakeResult(*res)}}
	}
	return json.Marshal(pts)
}

// reportPoints extracts a report's points as JSON.
func reportPoints(report []byte) ([]byte, error) {
	var rep obs.Report
	if err := json.Unmarshal(report, &rep); err != nil {
		return nil, err
	}
	return json.Marshal(rep.Points)
}

// verifyDirect runs every distinct spec through core and compares its
// points with the served report. With tracing on, some run specs are
// also rerun instrumented (traceServed).
func (e *env) verifyDirect(first map[string]jobRecord) error {
	var runs []directRun
	for _, r := range first {
		d, err := toDirect(r)
		if err != nil {
			e.op(fmt.Errorf("job %d: %w", r.seq, err))
			continue
		}
		runs = append(runs, d)
	}
	// Map order is random; verify in hash order for stable spans.
	sort.Slice(runs, func(i, j int) bool { return runs[i].hash < runs[j].hash })
	var items []runItem
	for _, d := range runs {
		if !d.sweep {
			rc := d.rc
			rc.Load = d.net.load
			items = append(items, runItem{spec: d.net, rc: rc})
		}
	}
	results, err := untracedRuns(items)
	if err == nil && e.trace && len(items) > 0 {
		err = e.traceServed(items, results)
	}
	if err != nil {
		return err
	}
	k := 0
	for _, d := range runs {
		var res *sim.Result
		if !d.sweep {
			res = &results[k]
			k++
		}
		want, err := d.expect(res)
		if err != nil {
			return fmt.Errorf("%s: %w", d.net.label, err)
		}
		got, err := reportPoints(first[d.hash].report)
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("%s: served points differ from the spec run through core", d.net.label)
		}
		e.op(err)
	}
	return nil
}

// tracedSpecs bounds how many served specs the traced run reruns
// instrumented: enough for steady per-layer figures at a bounded cost.
const tracedSpecs = 64

// traceServed reruns the first served run specs untraced and
// instrumented (traceRuns), which sets the sim-layer metrics, and
// requires the same results as the verification runs.
func (e *env) traceServed(items []runItem, results []sim.Result) error {
	n := min(len(items), tracedSpecs)
	root := e.spans.begin(0, "", "served_specs")
	defer e.spans.end(root)
	ref, err := e.traceRuns(root, items[:n])
	if err != nil {
		return err
	}
	for i := range ref {
		var mismatch error
		if resultDigest(ref[i]) != resultDigest(results[i]) {
			mismatch = fmt.Errorf("%s: traced rerun differs from the verification run", items[i].spec.label)
		}
		e.op(mismatch)
	}
	return e.shardSnapshotProbe(root, items[0].spec)
}

// --- workloads ------------------------------------------------------

const (
	// serveTailPct is serve-durable's tail percentile. In runs of 2000
	// jobs p99 kept 20 jobs above it, but over ten seeds its spread was
	// twice the p50's (22% against 12%): single fsync and scheduling
	// stalls set it. p95 kept 100 jobs above it and spread 11%.
	serveTailPct = 95
	serveRate    = 400 // jobs per second of the reference host
	serveRound   = 100 // jobs per round of the closed loop
)

// serveDurable is the serve-durable session: 500 journaled jobs, 20
// timed restarts, then the closed loop.
func (e *env) serveDurable() serveSession {
	return serveSession{name: "serve-durable", written: 500, restarts: 20,
		jobs: e.units(serveRate, minSamples(serveTailPct)), round: serveRound}
}

func runServeDurable(e *env) error {
	mix := newJobMix(e.seed)
	run, err := e.runSession(e.serveDurable(), filepath.Join(e.scratch, "data"), mix)
	if err != nil {
		return err
	}
	first := e.checkReports(run.records)
	e.op(e.checkPin(writtenDigest(run.records[:run.written])))
	if err := e.verifyDirect(first); err != nil {
		return err
	}
	timed := run.records[run.written:]
	e.note("timed_region_s %.3f", run.elapsed.Seconds())
	if e.trace {
		e.serveMetrics(run, timed)
		return nil
	}
	// The rates are medians over the rounds of the closed loop.
	var lat, roundJobs, roundCycles, roundSecs []float64
	done := 0
	for _, rd := range run.rounds {
		var jobs, cycles int64
		for _, r := range rd.recs {
			if r.err != nil {
				continue
			}
			jobs++
			lat = append(lat, millis(r.total))
			if !r.cached {
				for _, res := range reportResults(r.report) {
					cycles += res.Cycles
				}
			}
		}
		done += int(jobs)
		roundJobs = append(roundJobs, float64(jobs))
		roundCycles = append(roundCycles, float64(cycles))
		roundSecs = append(roundSecs, rd.elapsed.Seconds())
	}
	e.set("setup_s", median(run.setups), "s")
	e.set("cycles_per_s", medianRate(roundCycles, roundSecs), "cycles/s")
	e.set("jobs_per_s", medianRate(roundJobs, roundSecs), "jobs/s")
	if err := e.submitDone("submit->report", lat, serveTailPct); err != nil {
		return err
	}
	e.set("peak_rss_mb", peakRSSMB(), "MB")
	repeats, saturated, drainTimeout := mixShares(timed)
	e.note("serve-durable: %d jobs in %.2fs (%d cache hits; %.1f%% repeats, %.1f%% flagged saturated, %.1f%% drain timeouts), %d journal records replayed per restart",
		done, run.elapsed.Seconds(), run.stats.CacheHits, 100*repeats, 100*saturated, 100*drainTimeout, run.replayed)
	return nil
}

// serveProbe is the serve layer's share of a simulation workload's
// traced run: a short durable session (12 journaled jobs, two
// restarts, 100 jobs in the closed loop) whose reports are checked
// like serve-durable's, without the direct-core comparison.
func (e *env) serveProbe() error {
	cfg := serveSession{name: "serve-probe", written: 12, restarts: 2, jobs: 100, round: 100}
	run, err := e.runSession(cfg, filepath.Join(e.scratch, "probe"), newJobMix(e.seed))
	if err != nil {
		return err
	}
	e.checkReports(run.records)
	e.serveMetrics(run, run.records[run.written:])
	return nil
}

// serveMetrics sets the serve-layer metrics from the timed jobs.
func (e *env) serveMetrics(run *serveRun, timed []jobRecord) {
	var admit, queue, exec, report, bytesOut []float64
	for _, r := range timed {
		if r.err != nil {
			continue
		}
		admit = append(admit, millis(r.submitted.Sub(r.admit)))
		report = append(report, millis(r.reportRTT))
		bytesOut = append(bytesOut, float64(len(r.report)))
		if !r.running.IsZero() {
			queue = append(queue, millis(r.running.Sub(r.submitted)))
			exec = append(exec, millis(r.done.Sub(r.running)))
		}
	}
	e.latency("serve.admit", "ms", admit, layerTailPct, "serve.admit_ms_p50", "serve.admit_ms_tail")
	e.latency("serve.queue_wait", "ms", queue, layerTailPct, "serve.queue_wait_ms_p50", "serve.queue_wait_ms_tail")
	e.latency("serve.exec", "ms", exec, layerTailPct, "serve.exec_ms_p50", "serve.exec_ms_tail")
	e.set("serve.report_ms_p50", median(report), "ms")
	e.set("serve.report_bytes", median(bytesOut), "B")
	hits := float64(run.stats.CacheHits)
	ratio := 0.0
	if n := hits + float64(run.stats.CacheMisses); n > 0 {
		ratio = hits / n
	}
	e.set("serve.cache_hit_ratio", ratio, "ratio")
	e.set("serve.rejected_429", float64(run.stats.Rejected), "count")
	e.set("serve.journal_replays", float64(run.replayed), "count")
	repeats, saturated, drainTimeout := mixShares(timed)
	e.set("serve.repeat_share", repeats, "ratio")
	e.set("serve.saturated_share", saturated, "ratio")
	e.set("serve.drain_timeout_share", drainTimeout, "ratio")
}

// mixShares returns the shares of the jobs that the mix drew as
// repeats, whose report flags a point saturated, and that ran a point
// to the end of its drain budget. On 50 measured cycles the engine's
// saturation flag (accepted below 95% of offered) also fires on
// sampling noise; the drain timeouts are the jobs that cost their full
// cycle budget.
func mixShares(recs []jobRecord) (repeats, saturated, drainTimeout float64) {
	for _, r := range recs {
		if r.repeat {
			repeats++
		}
		var sat, timeout bool
		for _, res := range reportResults(r.report) {
			sat = sat || res.Saturated
			timeout = timeout || res.DrainTimeout
		}
		if sat {
			saturated++
		}
		if timeout {
			drainTimeout++
		}
	}
	n := float64(max(len(recs), 1))
	return repeats / n, saturated / n, drainTimeout / n
}

// writtenDigest hashes the reports of the journal-writing phase, in
// sequence order: the part of a session fixed by the seed alone.
func writtenDigest(recs []jobRecord) string {
	byseq := make([][]byte, len(recs))
	for _, r := range recs {
		byseq[r.seq] = r.report
	}
	return digest(bytes.Join(byseq, []byte{0}))
}

// reportResults decodes the results of a report's points.
func reportResults(report []byte) []obs.Result {
	var rep obs.Report
	if json.Unmarshal(report, &rep) != nil {
		return nil
	}
	out := make([]obs.Result, len(rep.Points))
	for i, p := range rep.Points {
		out[i] = p.Result
	}
	return out
}
