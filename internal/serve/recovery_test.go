package serve

// Crash-recovery tests: a durable server is killed mid-flight
// (crashForTest — the store detaches first, exactly the view a SIGKILL
// leaves on disk), the data directory is additionally vandalized the
// way real crashes vandalize it (torn temp files, a corrupt journal
// line, a torn final line), and a fresh server on the same directory
// must recover every accepted job with zero losses and bit-identical
// results.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
)

// longSubmission is a run big enough to be caught mid-flight: the tiny
// 2/4/2 machine with a long warmup so checkpoints appear well before
// the finish line.
func longSubmission() Submission {
	return Submission{
		Kind:      KindRun,
		Topology:  TopologySpec{P: 2, A: 4, H: 2},
		Algorithm: "MIN",
		Pattern:   "UR",
		Seed:      7,
		Load:      0.2,
		Run:       RunSpec{Warmup: 20000, Measure: 2000, Drain: 5000},
	}
}

// durableServer opens a Server on dir and fronts it with httptest. No
// cleanup is registered: crash tests tear down by hand (crashForTest or
// Shutdown) at the point in the scenario where the "process" dies.
func durableServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DataDir = dir
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return srv, httptest.NewServer(srv)
}

// waitForCheckpoint polls until checkpoints/<id>.snap exists — the
// engine has durably passed at least one cycle-batch boundary.
func waitForCheckpoint(t *testing.T, dir, id string) {
	t.Helper()
	path := filepath.Join(dir, "checkpoints", id+".snap")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never wrote a checkpoint", id)
}

// referenceReport runs sub on a fresh in-memory server and returns the
// report bytes — the uninterrupted ground truth a recovered run must
// reproduce exactly.
func referenceReport(t *testing.T, sub Submission) []byte {
	t.Helper()
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 4})
	st, code := submit(t, ts, sub)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("reference submit: status %d", code)
	}
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("reference run ended %q (%s)", fin.State, fin.Error)
	}
	return getReport(t, ts, st.ID)
}

// TestCrashRecovery is the headline durability scenario: finished and
// in-flight jobs survive a kill plus on-disk damage, recover without
// loss, and the resumed run is bit-identical to an uninterrupted one.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, ts := durableServer(t, dir, Config{Workers: 2, QueueDepth: 16, CheckpointEvery: 500})

	// A quick job runs to completion — its result must survive verbatim.
	quick, code := submit(t, ts, tinySubmission())
	if code != http.StatusAccepted {
		t.Fatalf("quick submit: status %d", code)
	}
	if fin := waitTerminal(t, ts, quick.ID); fin.State != StateDone {
		t.Fatalf("quick job ended %q (%s)", fin.State, fin.Error)
	}
	quickReport := getReport(t, ts, quick.ID)

	// A long job gets caught mid-run, after at least one checkpoint.
	long, code := submit(t, ts, longSubmission())
	if code != http.StatusAccepted {
		t.Fatalf("long submit: status %d", code)
	}
	waitForCheckpoint(t, dir, long.ID)

	srv.crashForTest()
	ts.Close()

	// Vandalize the data dir the way real crashes do: a torn checkpoint
	// temp file, a corrupt (but complete) journal line, and a torn final
	// line from a write cut off mid-record.
	if err := os.WriteFile(filepath.Join(dir, "checkpoints", "junk.snap.tmp123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString("{\"v\":1,\"type\":\"nonsense\",\"id\":\"jx\"}\n{\"v\":1,\"type\":\"state\",\"id\":\"j00"); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// Restart on the same directory.
	srv2, ts2 := durableServer(t, dir, Config{Workers: 2, QueueDepth: 16, CheckpointEvery: 500})
	defer ts2.Close()
	defer srv2.crashForTest()

	// The finished job is back, done, with the exact same bytes, without
	// re-running (its submission timestamp was restored from the journal).
	if st := getStatus(t, ts2, quick.ID); st.State != StateDone {
		t.Fatalf("recovered quick job state %q, want done", st.State)
	} else if st.SubmittedAt != quick.SubmittedAt {
		t.Errorf("recovered quick job submitted_unix_ms %d, want %d (journal timestamp)", st.SubmittedAt, quick.SubmittedAt)
	}
	if got := getReport(t, ts2, quick.ID); !bytes.Equal(got, quickReport) {
		t.Error("recovered quick job report differs from the original bytes")
	}

	// The interrupted job finishes from its checkpoint, bit-identical to
	// an uninterrupted run of the same spec.
	if fin := waitTerminal(t, ts2, long.ID); fin.State != StateDone {
		t.Fatalf("recovered long job ended %q (%s)", fin.State, fin.Error)
	}
	if got, want := getReport(t, ts2, long.ID), referenceReport(t, longSubmission()); !bytes.Equal(got, want) {
		t.Error("resumed run is not bit-identical to an uninterrupted run")
	}

	// The result cache was warmed from disk: resubmitting the quick spec
	// answers 200 from cache, byte-identical.
	rerun, code := submit(t, ts2, tinySubmission())
	if code != http.StatusOK || !rerun.Cached {
		t.Errorf("resubmit after recovery: status %d cached=%v, want 200 cached", code, rerun.Cached)
	}

	// Damage accounting: exactly the planted line quarantined, the torn
	// tail dropped, the temp debris swept.
	st := srv2.stats()
	if !st.Durable || st.JournalReplays == 0 || st.JobsRecovered == 0 {
		t.Errorf("stats after recovery: durable=%v replayed=%d recovered=%d", st.Durable, st.JournalReplays, st.JobsRecovered)
	}
	if st.RecordsQuarantined != 1 {
		t.Errorf("records_quarantined = %d, want 1", st.RecordsQuarantined)
	}
	if q, err := os.ReadFile(filepath.Join(dir, "journal.quarantine")); err != nil || !bytes.Contains(q, []byte("nonsense")) {
		t.Errorf("quarantine file missing the corrupt line (err=%v)", err)
	}
	if debris, _ := filepath.Glob(filepath.Join(dir, "checkpoints", "*.tmp*")); len(debris) != 0 {
		t.Errorf("temp debris not swept: %v", debris)
	}
}

// TestRecoveryRetriesCorruptCheckpoint: a checkpoint whose body was
// corrupted on disk (framing intact, engine CRC broken) must not fail
// the job — the engine refuses the snapshot, the server drops it and
// retries from scratch through the backoff schedule, and the result is
// still bit-identical.
func TestRecoveryRetriesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, ts := durableServer(t, dir, Config{Workers: 1, QueueDepth: 4, CheckpointEvery: 500})

	long, code := submit(t, ts, longSubmission())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitForCheckpoint(t, dir, long.ID)
	srv.crashForTest()
	ts.Close()

	// Flip the last byte: that's inside the engine snapshot's trailing
	// CRC, so the store-level framing still parses and recovery hands the
	// engine a snapshot it will reject at resume time.
	path := filepath.Join(dir, "checkpoints", long.ID+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := durableServer(t, dir, Config{Workers: 1, QueueDepth: 4, CheckpointEvery: 500})
	defer ts2.Close()
	defer srv2.crashForTest()

	if fin := waitTerminal(t, ts2, long.ID); fin.State != StateDone {
		t.Fatalf("job ended %q (%s), want done via retry-from-scratch", fin.State, fin.Error)
	}
	if st := srv2.stats(); st.JobsRetried < 1 {
		t.Errorf("jobs_retried = %d, want >= 1", st.JobsRetried)
	}
	if got, want := getReport(t, ts2, long.ID), referenceReport(t, longSubmission()); !bytes.Equal(got, want) {
		t.Error("retried run is not bit-identical to an uninterrupted run")
	}
}

// serveLocal runs one request through the server's handler in-process,
// with no HTTP connection or server goroutine behind it.
func serveLocal(srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// submitLocal submits sub through serveLocal and returns its status.
func submitLocal(t *testing.T, srv *Server, sub Submission) (Status, int) {
	t.Helper()
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	rec := serveLocal(srv, http.MethodPost, "/v1/jobs", body)
	var st Status
	if rec.Code == http.StatusOK || rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, rec.Code
}

// statusLocal reads a job's status through serveLocal.
func statusLocal(t *testing.T, srv *Server, id string) Status {
	t.Helper()
	var st Status
	if err := json.Unmarshal(serveLocal(srv, http.MethodGet, "/v1/jobs/"+id, nil).Body.Bytes(), &st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// journalSteps reads dir's journal and returns each job's records in
// journal order, spelled as their type ("accepted", "retry") or, for
// state records, the state.
func journalSteps(t *testing.T, dir string) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	steps := make(map[string][]string)
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		r, err := decodeRecord(line)
		if err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		step := r.Type
		if r.Type == recState {
			step = string(r.State)
		}
		steps[r.ID] = append(steps[r.ID], step)
	}
	return steps
}

// TestSettlementOrder: a durable server journals every job's records
// in lifecycle order — accepted → running → (retry → running) →
// terminal — although the running records and settlements are written
// by the persister, not the worker that ran the job. A status read
// that first shows a job terminal finds its terminal record, and for
// a done job its result file, already on disk; a cache hit's 200 finds
// both of its records there.
func TestSettlementOrder(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Config{DataDir: dir, Workers: 2, QueueDepth: 8, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	const seedFail, seedRetry = 101, 102
	srv.testHook = func(j *Job) {
		switch j.Spec.Seed {
		case seedFail:
			panic("injected failure")
		case seedRetry:
			// The first attempt resumes from a checkpoint the engine
			// refuses: a transient failure, retried from scratch.
			j.mu.Lock()
			if j.attempt == 0 {
				j.resume = []byte("not a snapshot")
			}
			j.mu.Unlock()
		}
	}

	run := tinySubmission()
	run.Seed = 1
	sweep := tinySubmission()
	sweep.Kind, sweep.Load, sweep.Loads = KindSweep, 0, []float64{0.05, 0.1}
	failed := tinySubmission()
	failed.Seed = seedFail
	retried := tinySubmission()
	retried.Seed = seedRetry

	// onDisk reports whether the job's terminal record, and for a done
	// job its result file, are in the data dir.
	onDisk := func(st Status) bool {
		steps := journalSteps(t, dir)[st.ID]
		if len(steps) == 0 || steps[len(steps)-1] != string(st.State) {
			return false
		}
		if st.State != StateDone {
			return true
		}
		_, err := os.Stat(filepath.Join(dir, "results", st.Hash+".json"))
		return err == nil
	}

	cases := []struct {
		name  string
		sub   Submission
		state State
		want  []string
	}{
		{"run", run, StateDone, []string{"accepted", "running", "done"}},
		{"sweep", sweep, StateDone, []string{"accepted", "running", "done"}},
		{"failed", failed, StateFailed, []string{"accepted", "running", "failed"}},
		{"retried", retried, StateDone, []string{"accepted", "running", "retry", "running", "done"}},
	}
	ids := make([]string, len(cases))
	for i, c := range cases {
		st, code := submitLocal(t, srv, c.sub)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d, want 202", c.name, code)
		}
		ids[i] = st.ID
		deadline := time.Now().Add(30 * time.Second)
		for !terminal(st.State) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: job %s never settled", c.name, st.ID)
			}
			st = statusLocal(t, srv, st.ID)
		}
		if st.State != c.state {
			t.Fatalf("%s: job ended %q (%s), want %q", c.name, st.State, st.Error, c.state)
		}
		if !onDisk(st) {
			t.Errorf("%s: the first status read showing %q came before the job's durable settlement", c.name, st.State)
		}
	}

	hit, code := submitLocal(t, srv, run)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("resubmission: status %d cached=%v, want 200 cached", code, hit.Cached)
	}
	if !onDisk(hit) {
		t.Error("cache hit answered 200 before its done record was durable")
	}

	steps := journalSteps(t, dir)
	for i, c := range cases {
		if got := steps[ids[i]]; !slices.Equal(got, c.want) {
			t.Errorf("%s: journal records %v, want %v", c.name, got, c.want)
		}
	}
	if got, want := steps[hit.ID], []string{"accepted", "done"}; !slices.Equal(got, want) {
		t.Errorf("cache hit: journal records %v, want %v", got, want)
	}
}

// TestPersisterJoined: Shutdown and crashForTest each join the
// persister along with the workers, so a stopped server leaves exactly
// the goroutines that ran before Open — no slack that could hide one
// leaked persister.
func TestPersisterJoined(t *testing.T) {
	stops := []struct {
		name string
		stop func(*Server) error
	}{
		{"Shutdown", func(s *Server) error {
			// A drain deadline that has already passed: Shutdown cancels
			// the running job instead of waiting it out.
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			return s.Shutdown(ctx)
		}},
		{"crashForTest", func(s *Server) error { s.crashForTest(); return nil }},
	}
	for _, c := range stops {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			srv, err := Open(Config{DataDir: t.TempDir(), Workers: 2, CheckpointEvery: 500, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			quick, _ := submitLocal(t, srv, tinySubmission())
			for st := quick; !terminal(st.State); st = statusLocal(t, srv, quick.ID) {
				time.Sleep(time.Millisecond)
			}
			// A long job is still running when the server stops: its
			// settlement is the persister's last step.
			long, _ := submitLocal(t, srv, longSubmission())
			for st := long; st.State != StateRunning; st = statusLocal(t, srv, long.ID) {
				time.Sleep(time.Millisecond)
			}
			if err := c.stop(srv); err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatal(err)
			}
			select {
			case <-srv.persisted:
			default:
				t.Errorf("%s returned before the persister exited", c.name)
			}
			deadline := time.Now().Add(5 * time.Second)
			n := runtime.NumGoroutine()
			for n > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > base {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines before Open, %d after %s\n%s", base, n, c.name, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
