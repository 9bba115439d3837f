package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tinySubmission is a run small enough to finish in well under a
// second: the 2/4/2 nine-group dragonfly with short phases.
func tinySubmission() Submission {
	return Submission{
		Kind:      KindRun,
		Topology:  TopologySpec{P: 2, A: 4, H: 2},
		Algorithm: "MIN",
		Pattern:   "UR",
		Load:      0.1,
		Run:       RunSpec{Warmup: 50, Measure: 50, Drain: 1000},
	}
}

// newServer opens an in-memory Server; without a DataDir, Open cannot
// fail.
func newServer(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// testServer builds a Server plus an httptest front end and tears both
// down at test end (Shutdown first, so no job outlives the test).
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, sub Submission) (Status, int) {
	t.Helper()
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitTerminal polls a job until it leaves the queue/run states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if terminal(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return Status{}
}

func getReport(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatalf("GET report: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read report: %v", err)
	}
	return buf.Bytes()
}

// TestSubmitWorkloadJobs runs the new workload stanza end to end: an
// ON/OFF bursty run and a trace replay both complete and report, the
// pattern label carries the arrival process, and an identical trace
// submission (reformatted) answers from the cache.
func TestSubmitWorkloadJobs(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})

	onoff := tinySubmission()
	onoff.Workload = "onoff"
	onoff.WorkloadParams = map[string]int{"on": 20, "off": 60}
	st, code := submit(t, ts, onoff)
	if code != http.StatusAccepted {
		t.Fatalf("submit onoff: status %d, want 202", code)
	}
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("onoff job finished %q: %s", fin.State, fin.Error)
	} else if fin.Pattern != "UR+onoff" {
		t.Errorf("onoff job pattern label %q, want %q", fin.Pattern, "UR+onoff")
	}
	getReport(t, ts, st.ID)

	trace := tinySubmission()
	trace.Workload = "trace"
	trace.Trace = "0 0 5 3\n10 1 6 2\n"
	st, code = submit(t, ts, trace)
	if code != http.StatusAccepted {
		t.Fatalf("submit trace: status %d, want 202", code)
	}
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("trace job finished %q: %s", fin.State, fin.Error)
	}

	// Reformatted trace, same flows: must answer from the cache.
	again := tinySubmission()
	again.Workload = "trace"
	again.Trace = "# same\n0 0 5 3\n10  1 6 2\n"
	st2, _ := submit(t, ts, again)
	if st2.Hash != st.Hash {
		t.Errorf("reformatted trace hashed %s, original %s: want one cache entry", st2.Hash, st.Hash)
	}
	if fin := waitTerminal(t, ts, st2.ID); !fin.Cached {
		t.Errorf("reformatted trace re-simulated instead of hitting the cache")
	}
}

// TestTrafficListing pins GET /v1/traffic: both registry halves are
// listed with schemas, enough for a client to compose a submission.
func TestTrafficListing(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/v1/traffic")
	if err != nil {
		t.Fatalf("GET /v1/traffic: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traffic: status %d", resp.StatusCode)
	}
	type family struct {
		Name   string            `json:"name"`
		Params []json.RawMessage `json:"params"`
	}
	var body struct {
		Traffic   []family `json:"traffic"`
		Workloads []family `json:"workloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	tnames := map[string]bool{}
	for _, f := range body.Traffic {
		tnames[f.Name] = true
	}
	for _, want := range []string{"ur", "wc", "hotspot", "perm"} {
		if !tnames[want] {
			t.Errorf("traffic listing is missing family %q", want)
		}
	}
	wnames := map[string]bool{}
	var onoffParams int
	for _, f := range body.Workloads {
		wnames[f.Name] = true
		if f.Name == "onoff" {
			onoffParams = len(f.Params)
		}
	}
	for _, want := range []string{"bernoulli", "onoff", "drift", "collective", "trace"} {
		if !wnames[want] {
			t.Errorf("workload listing is missing family %q", want)
		}
	}
	if onoffParams == 0 {
		t.Error("onoff family listed without its parameter schema")
	}
}

func TestSubmitRunToCompletion(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	st, code := submit(t, ts, tinySubmission())
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state %q", st.State)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %q (%s: %s), want done", fin.State, fin.ErrorKind, fin.Error)
	}
	var rep struct {
		SchemaVersion int    `json:"schema_version"`
		Kind          string `json:"kind"`
		Points        []struct {
			Load   float64 `json:"load"`
			Result struct {
				Accepted float64 `json:"accepted"`
			} `json:"result"`
		} `json:"points"`
	}
	if err := json.Unmarshal(getReport(t, ts, st.ID), &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.SchemaVersion != 1 || rep.Kind != "run" || len(rep.Points) != 1 {
		t.Errorf("report = version %d kind %q with %d points, want version 1 run with 1 point", rep.SchemaVersion, rep.Kind, len(rep.Points))
	}
	if rep.Points[0].Result.Accepted <= 0 {
		t.Errorf("accepted throughput %v, want > 0", rep.Points[0].Result.Accepted)
	}
}

func TestSubmitSweepToCompletion(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	sub := tinySubmission()
	sub.Kind = KindSweep
	sub.Load = 0
	sub.Loads = []float64{0.05, 0.1}
	st, code := submit(t, ts, sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("sweep finished %q (%s)", fin.State, fin.Error)
	}
	var rep struct {
		Kind   string `json:"kind"`
		Points []any  `json:"points"`
	}
	if err := json.Unmarshal(getReport(t, ts, st.ID), &rep); err != nil {
		t.Fatalf("report: %v", err)
	}
	if rep.Kind != "sweep" || len(rep.Points) != 2 {
		t.Errorf("report kind %q with %d points, want sweep with 2", rep.Kind, len(rep.Points))
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		mut  func(*Submission)
		want int
	}{
		{"bad algorithm", func(s *Submission) { s.Algorithm = "RIP" }, 400},
		{"bad pattern", func(s *Submission) { s.Pattern = "chaos" }, 400},
		{"missing kind", func(s *Submission) { s.Kind = "" }, 400},
		{"load out of range", func(s *Submission) { s.Load = 1.5 }, 400},
		{"run with loads", func(s *Submission) { s.Loads = []float64{0.1} }, 400},
		{"bad timeline", func(s *Submission) { s.Timeline = "@banana explode" }, 400},
		{"negative window", func(s *Submission) { s.Window = -5 }, 400},
	}
	for _, tc := range cases {
		sub := tinySubmission()
		tc.mut(&sub)
		if _, code := submit(t, ts, sub); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	// Unknown fields are typos, not silently-dropped options.
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"run","algorithm":"MIN","pattern":"UR","lod":0.3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

func TestSubmitOversizedBody(t *testing.T) {
	_, ts := testServer(t, Config{MaxBody: 512})
	huge := fmt.Sprintf(`{"kind":"run","algorithm":"MIN","pattern":"UR","timeline":%q}`, strings.Repeat("x", 4096))
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

func TestQueueBackpressure(t *testing.T) {
	block := make(chan struct{})
	srv, ts := testServer(t, Config{QueueDepth: 2, Workers: 1})
	srv.testHook = func(j *Job) {
		if j.Spec.Seed == 999 {
			<-block
		}
	}

	blocker := tinySubmission()
	blocker.Seed = 999
	bst, code := submit(t, ts, blocker)
	if code != http.StatusAccepted {
		t.Fatalf("blocker: status %d", code)
	}
	// Wait for the blocker to occupy the only worker, then fill the
	// queue exactly.
	deadline := time.Now().Add(5 * time.Second)
	for getStatus(t, ts, bst.ID).State != StateRunning && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	var queued []string
	for i := 0; i < 2; i++ {
		sub := tinySubmission()
		sub.Seed = uint64(100 + i)
		st, code := submit(t, ts, sub)
		if code != http.StatusAccepted {
			t.Fatalf("fill %d: status %d, want 202", i, code)
		}
		queued = append(queued, st.ID)
	}
	over := tinySubmission()
	over.Seed = 500
	body, _ := json.Marshal(over)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}

	// Release the blocker: everything accepted must still complete.
	close(block)
	for _, id := range append(queued, bst.ID) {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Errorf("job %s finished %q after backpressure, want done", id, st.State)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	sub := tinySubmission()
	sub.Run = RunSpec{Warmup: 5_000_000, Measure: 1000, Drain: 1000} // minutes of work
	// A windowed run streams a progress event every Window cycles.
	sub.Window = 10
	st, code := submit(t, ts, sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Cancel only after the first progress event: a job that is merely
	// running may not have stepped a cycle yet, and the cycle_reached
	// check below needs the cancel to land mid-run.
	waitFirstEvent(t, ts, st.ID, "window")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("canceled job finished %q (%s)", fin.State, fin.Error)
	}
	if fin.ErrorKind != "canceled" {
		t.Errorf("error_kind %q, want canceled", fin.ErrorKind)
	}
	if fin.CycleReached <= 0 {
		t.Errorf("canceled mid-warmup but cycle_reached = %d, want > 0", fin.CycleReached)
	}
}

// waitFirstEvent reads a job's SSE feed until the first event of the
// given type arrives.
func waitFirstEvent(t *testing.T, ts *httptest.Server, id, evType string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() == "event: "+evType {
			return
		}
	}
	t.Fatalf("job %s event feed ended without a %q event", id, evType)
}

func TestJobTimeout(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	sub := tinySubmission()
	sub.Run = RunSpec{Warmup: 5_000_000, Measure: 1000, Drain: 1000}
	sub.TimeoutMS = 50
	st, code := submit(t, ts, sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateFailed || fin.ErrorKind != "timeout" {
		t.Fatalf("timed-out job = %q/%q (%s), want failed/timeout", fin.State, fin.ErrorKind, fin.Error)
	}
}

func TestPanicIsolation(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1})
	srv.testHook = func(j *Job) {
		if j.Spec.Seed == 666 {
			panic("injected failure")
		}
	}
	bad := tinySubmission()
	bad.Seed = 666
	bst, _ := submit(t, ts, bad)
	fin := waitTerminal(t, ts, bst.ID)
	if fin.State != StateFailed || fin.ErrorKind != "panic" {
		t.Fatalf("panicking job = %q/%q, want failed/panic", fin.State, fin.ErrorKind)
	}
	if !strings.Contains(fin.Error, "injected failure") {
		t.Errorf("panic message lost: %q", fin.Error)
	}
	// The worker that recovered the panic must still serve jobs.
	srv.testHook = nil
	ok, _ := submit(t, ts, tinySubmission())
	if st := waitTerminal(t, ts, ok.ID); st.State != StateDone {
		t.Fatalf("job after panic finished %q: the worker died", st.State)
	}
}

func TestCacheHit(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	sub := tinySubmission()
	first, code := submit(t, ts, sub)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	if st := waitTerminal(t, ts, first.ID); st.State != StateDone {
		t.Fatalf("first run finished %q", st.State)
	}
	rep1 := getReport(t, ts, first.ID)

	second, code := submit(t, ts, sub)
	if code != http.StatusOK {
		t.Fatalf("cached submit: status %d, want 200", code)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("cached job = cached:%v state:%q, want cached done", second.Cached, second.State)
	}
	if rep2 := getReport(t, ts, second.ID); !bytes.Equal(rep1, rep2) {
		t.Error("cached report differs from the original bytes")
	}

	// A different seed is a different machine: must miss.
	other := tinySubmission()
	other.Seed = 2
	third, code := submit(t, ts, other)
	if code != http.StatusAccepted || third.Cached {
		t.Fatalf("different-seed submit = %d cached:%v, want a 202 miss", code, third.Cached)
	}
	waitTerminal(t, ts, third.ID)
}

// TestSSEStream reads a windowed run's event feed end to end: state
// transitions, at least one live window, and a clean stream close at
// the terminal state.
func TestSSEStream(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1})
	// Hold execution until the SSE client is attached, so the live
	// window events have a subscriber to reach.
	attached := make(chan struct{})
	srv.testHook = func(*Job) { <-attached }
	sub := tinySubmission()
	sub.Run = RunSpec{Warmup: 400, Measure: 400, Drain: 2000}
	sub.Window = 100
	st, code := submit(t, ts, sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	close(attached)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	events := map[string]int{}
	var lastState Status
	sc := bufio.NewScanner(resp.Body)
	var evType string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events[evType]++
			if evType == "state" {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &lastState); err != nil {
					t.Fatalf("bad state event: %v", err)
				}
			}
		}
	}
	// The stream ends when the job goes terminal and the server closes
	// the feed; scanner just runs out of input.
	if !terminal(lastState.State) {
		t.Errorf("last streamed state %q, want a terminal state", lastState.State)
	}
	if events["window"] == 0 {
		t.Error("no live window events on a windowed run")
	}
	if events["state"] < 2 {
		t.Errorf("%d state events, want at least snapshot+terminal", events["state"])
	}
}

func TestShutdownRefusesNewWork(t *testing.T) {
	srv := newServer(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st, code := submit(t, ts, tinySubmission())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v (accepted work should finish well within the deadline)", err)
	}
	if fin := getStatus(t, ts, st.ID); fin.State != StateDone {
		t.Errorf("job accepted before drain finished %q, want done", fin.State)
	}
	if _, code := submit(t, ts, tinySubmission()); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	// Liveness is a different question: the process is up, so healthz
	// stays 200 even while draining.
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200", resp.StatusCode)
	}
}

// TestShutdownDeadlineCancelsStragglers: a job far exceeding the drain
// deadline is canceled through its context, Shutdown returns promptly,
// and the job lands in canceled — never lost, never still running.
func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	srv := newServer(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sub := tinySubmission()
	sub.Run = RunSpec{Warmup: 50_000_000, Measure: 1000, Drain: 1000}
	st, code := submit(t, ts, sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for getStatus(t, ts, st.ID).State != StateRunning && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil with an unfinishable job: the drain deadline did not fire")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("Shutdown took %v after its 300ms deadline", took)
	}
	fin := getStatus(t, ts, st.ID)
	if fin.State != StateCanceled {
		t.Errorf("straggler finished %q, want canceled", fin.State)
	}
}

// TestTopologiesEndpoint: GET /v1/topologies lists every registered
// family with its parameter schema.
func TestTopologiesEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/topologies")
	if err != nil {
		t.Fatalf("GET /v1/topologies: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/topologies: status %d", resp.StatusCode)
	}
	var body struct {
		Topologies []struct {
			Name   string            `json:"name"`
			Params []json.RawMessage `json:"params"`
		} `json:"topologies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := map[string]bool{"dragonfly": false, "dragonflyfb": false, "dragonflyplus": false, "swapped": false, "aries": false}
	for _, ti := range body.Topologies {
		if _, ok := want[ti.Name]; ok {
			want[ti.Name] = true
		}
		if len(ti.Params) == 0 {
			t.Errorf("family %s listed without a parameter schema", ti.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("family %s missing from /v1/topologies", name)
		}
	}
}

// TestSubmitFamilyJob runs a non-dragonfly family end to end through
// the service, with a fault timeline for good measure.
func TestSubmitFamilyJob(t *testing.T) {
	_, ts := testServer(t, Config{})
	sub := Submission{
		Kind:      KindRun,
		Topology:  TopologySpec{Family: "swapped", Params: map[string]int{"p": 2, "k": 4}},
		Algorithm: "MIN",
		Pattern:   "UR",
		Load:      0.1,
		Run:       RunSpec{Warmup: 50, Measure: 50, Drain: 1000},
		Timeline:  "@20 fail global=0.25",
	}
	st, code := submit(t, ts, sub)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit family job: status %d", code)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("family job finished %s (%s: %s)", fin.State, fin.ErrorKind, fin.Error)
	}
	report := getReport(t, ts, st.ID)
	if !strings.Contains(string(report), "swapped") {
		t.Errorf("report does not name the swapped topology: %s", report)
	}
}
