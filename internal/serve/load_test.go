package serve

// The load test is the tentpole's acceptance gate: hundreds of
// concurrent submissions mixing valid jobs, invalid jobs, oversized
// bodies, client-aborted requests and one deliberately panicking job,
// against a small worker set and a bounded queue. Afterwards it proves
// the hardening contract held: every accepted job reached a terminal
// state (none lost), the panicking job failed structurally without
// hurting its worker, rejected submissions got real 429 backpressure,
// a cached resubmission returns byte-identical results to a fresh
// server computing the same job, shutdown drains within its deadline,
// and the goroutine count settles back to the baseline.
//
// CI runs it under -race with -short (reduced concurrency); the full
// width runs in the regular suite.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dragonfly/internal/parallel"
)

const chaosPanicSeed = 31337

// loadSubmission builds the i'th valid job of the storm. Seeds cycle
// through a small set so the storm exercises cache hits alongside
// misses; loads differ per seed so distinct specs stay distinct.
func loadSubmission(i int) Submission {
	sub := tinySubmission()
	sub.Seed = uint64(1 + i%4)
	sub.Load = 0.05 + 0.01*float64(i%12)
	if i%8 == 0 {
		sub.Kind = KindSweep
		sub.Load = 0
		sub.Loads = []float64{0.05, 0.1}
	}
	return sub
}

func TestServerLoad(t *testing.T) {
	n := 240
	if testing.Short() {
		n = 60
	}
	settleBaseline := runtime.NumGoroutine()

	pool := parallel.New(4)
	srv := newServer(Config{
		QueueDepth: 16,
		Workers:    4,
		Pool:       pool,
		JobTimeout: time.Minute,
	})
	srv.testHook = func(j *Job) {
		if j.Spec.Seed == chaosPanicSeed {
			panic("injected chaos monkey")
		}
		// Pad each job a little so the storm outruns the workers and the
		// bounded queue actually overflows — otherwise these tiny jobs
		// drain as fast as they arrive and the 429 path goes untested.
		time.Sleep(10 * time.Millisecond)
	}
	ts := httptest.NewServer(srv)
	client := ts.Client()

	var (
		mu       sync.Mutex
		accepted []string
		panicJob string
	)
	var got429, got400, got413, aborted atomic.Int64

	// submitUntilAccepted retries through 429 backpressure — the
	// contract is that a full queue is a retryable condition, not an
	// error — and records the accepted job.
	submitUntilAccepted := func(t *testing.T, sub Submission) string {
		body, err := json.Marshal(sub)
		if err != nil {
			t.Errorf("marshal: %v", err)
			return ""
		}
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return ""
			}
			switch resp.StatusCode {
			case http.StatusAccepted, http.StatusOK:
				var st Status
				err := json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					t.Errorf("decode: %v", err)
					return ""
				}
				mu.Lock()
				accepted = append(accepted, st.ID)
				mu.Unlock()
				return st.ID
			case http.StatusTooManyRequests:
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				got429.Add(1)
				time.Sleep(10 * time.Millisecond)
			default:
				resp.Body.Close()
				t.Errorf("submit: unexpected status %d", resp.StatusCode)
				return ""
			}
		}
		t.Error("submission never accepted within the retry budget")
		return ""
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 8 {
			case 7: // invalid: must be rejected up front, never queued
				bad := tinySubmission()
				bad.Algorithm = "NO-SUCH-ALG"
				body, _ := json.Marshal(bad)
				resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("invalid POST: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("invalid submission: status %d, want 400", resp.StatusCode)
				}
				got400.Add(1)
			case 6: // oversized body: 413, connection survives
				huge := fmt.Sprintf(`{"kind":"run","algorithm":"MIN","pattern":"UR","timeline":%q}`,
					strings.Repeat("x", 2<<20))
				resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
				if err != nil {
					// The server may slam the connection mid-upload once the
					// limit trips; either way the body was refused.
					aborted.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusRequestEntityTooLarge {
					t.Errorf("oversized submission: status %d, want 413", resp.StatusCode)
				}
				got413.Add(1)
			case 5: // client abort: give up on the request almost immediately
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				body, _ := json.Marshal(loadSubmission(i))
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				if err == nil {
					// Landed before the deadline: it is a normal accepted job.
					var st Status
					if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
						if json.NewDecoder(resp.Body).Decode(&st) == nil {
							mu.Lock()
							accepted = append(accepted, st.ID)
							mu.Unlock()
						}
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				} else {
					aborted.Add(1)
				}
				cancel()
			default: // valid work, retried through backpressure
				id := submitUntilAccepted(t, loadSubmission(i))
				if id != "" && i%16 == 2 {
					// Some clients watch the SSE feed and abandon it mid-
					// stream: the server must shed them without leaking.
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
					req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
					if resp, err := client.Do(req); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					cancel()
					aborted.Add(1)
				}
			}
		}(i)
	}
	// One poisoned job rides along with the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		bad := tinySubmission()
		bad.Seed = chaosPanicSeed
		if id := submitUntilAccepted(t, bad); id != "" {
			mu.Lock()
			panicJob = id
			mu.Unlock()
		}
	}()
	wg.Wait()

	if got429.Load() == 0 {
		t.Logf("note: queue never overflowed (no 429s exercised at n=%d)", n)
	}
	t.Logf("storm: %d accepted, %d backpressured, %d invalid, %d oversized, %d aborted",
		len(accepted), got429.Load(), got400.Load(), got413.Load(), aborted.Load())

	// No lost jobs: every accepted job reaches a terminal state.
	doneStates := map[State]int{}
	for _, id := range accepted {
		st := waitTerminal(t, ts, id)
		doneStates[st.State]++
		if st.State == StateFailed && st.ErrorKind != "panic" {
			t.Errorf("job %s failed unexpectedly: %s (%s)", id, st.Error, st.ErrorKind)
		}
	}
	t.Logf("terminal states: %v", doneStates)

	// The poisoned job failed structurally; its worker survived (all
	// other jobs completed above, which needed all four workers).
	if panicJob == "" {
		t.Fatal("the panicking job was never accepted")
	}
	if st := getStatus(t, ts, panicJob); st.State != StateFailed || st.ErrorKind != "panic" {
		t.Errorf("poisoned job = %q/%q, want failed/panic", st.State, st.ErrorKind)
	}

	// Cached vs fresh, bit for bit: resubmit one of the storm's specs
	// (a guaranteed hit now) and compare against a pristine server with
	// caching disabled computing the same job from scratch.
	spec := loadSubmission(1)
	cachedSt, code := submit(t, ts, spec)
	if code != http.StatusOK || !cachedSt.Cached {
		t.Fatalf("resubmission after the storm: status %d cached:%v, want a 200 cache hit", code, cachedSt.Cached)
	}
	cachedRep := getReport(t, ts, cachedSt.ID)

	fresh := newServer(Config{Workers: 1, CacheSize: -1, Pool: pool})
	fts := httptest.NewServer(fresh)
	freshSt, code := submit(t, fts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("fresh-server submit: %d", code)
	}
	if st := waitTerminal(t, fts, freshSt.ID); st.State != StateDone {
		t.Fatalf("fresh-server job finished %q", st.State)
	}
	freshRep := getReport(t, fts, freshSt.ID)
	if !bytes.Equal(cachedRep, freshRep) {
		t.Errorf("cached report is not bit-identical to a fresh computation:\ncached: %d bytes\nfresh:  %d bytes", len(cachedRep), len(freshRep))
	}
	fctx, fcancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := fresh.Shutdown(fctx); err != nil {
		t.Errorf("fresh server Shutdown: %v", err)
	}
	fcancel()
	fts.Close()

	// Graceful exit: with all work already terminal, drain must be
	// near-instant and error-free.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown after the storm: %v", err)
	}
	ts.Close()
	client.CloseIdleConnections()

	// Zero goroutine leaks across the whole exercise: workers joined,
	// SSE feeds shed, canceled waiters returned.
	deadline := time.Now().Add(10 * time.Second)
	goroutines := runtime.NumGoroutine()
	for goroutines > settleBaseline+3 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		goroutines = runtime.NumGoroutine()
	}
	if goroutines > settleBaseline+3 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d before the storm, %d after settling\n%s",
			settleBaseline, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// TestServerLoadRestart is the durability half of the load exercise: a
// storm of valid jobs against a durable server, a simulated SIGKILL
// with the queue still full, on-disk damage, then a restart on the same
// data directory. Every accepted job must reach done on the restarted
// server — zero losses — the recovered backlog (far deeper than the
// queue) must land through the deferred-enqueue path, and the whole
// cycle must settle back to the goroutine baseline.
func TestServerLoadRestart(t *testing.T) {
	n := 80
	if testing.Short() {
		n = 30
	}
	settleBaseline := runtime.NumGoroutine()
	dir := t.TempDir()
	pool := parallel.New(4)

	cfg := Config{
		QueueDepth:      16,
		Workers:         4,
		Pool:            pool,
		JobTimeout:      time.Minute,
		CheckpointEvery: 200,
	}
	srv, ts := durableServer(t, dir, cfg)
	// Pad jobs so the storm outruns the workers and the crash lands on a
	// full queue, not an idle server.
	srv.testHook = func(j *Job) { time.Sleep(20 * time.Millisecond) }
	client := ts.Client()

	var (
		mu       sync.Mutex
		accepted []string
	)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := loadSubmission(i)
			if i%10 == 3 {
				// Windowed runs are excluded from checkpointing; they must
				// still recover (from scratch) like everything else.
				sub.Kind = KindRun
				sub.Loads = nil
				sub.Load = 0.07
				sub.Window = 25
			}
			body, err := json.Marshal(sub)
			if err != nil {
				t.Errorf("marshal: %v", err)
				return
			}
			deadline := time.Now().Add(60 * time.Second)
			for time.Now().Before(deadline) {
				resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("POST: %v", err)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					time.Sleep(10 * time.Millisecond)
					continue
				}
				var st Status
				decErr := json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
					t.Errorf("submit: unexpected status %d", resp.StatusCode)
					return
				}
				if decErr != nil {
					t.Errorf("decode: %v", decErr)
					return
				}
				mu.Lock()
				accepted = append(accepted, st.ID)
				mu.Unlock()
				return
			}
			t.Error("submission never accepted within the retry budget")
		}(i)
	}
	// Crash only after every submission settled: the invariant under test
	// is that an acknowledged job is durable, which needs the ack to have
	// happened.
	wg.Wait()

	srv.crashForTest()
	ts.Close()

	// The same damage a real crash leaves behind.
	if err := os.WriteFile(filepath.Join(dir, "checkpoints", "junk.snap.tmp9"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString("not json at all\n{\"v\":1,\"type\":\"accepted\",\"id\":\"j0"); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// Restart with a deliberately narrow queue so the recovered backlog
	// exceeds it: recovery must route the overflow through deferred
	// enqueues rather than drop accepted jobs.
	restartCfg := cfg
	restartCfg.QueueDepth = 2
	srv2, ts2 := durableServer(t, dir, restartCfg)
	client = ts2.Client()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := client.Get(ts2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s after restart: %d, want 200", path, resp.StatusCode)
		}
	}

	// Zero lost jobs: every id accepted before the kill reaches done on
	// the restarted server (nothing in this storm fails or cancels).
	for _, id := range accepted {
		if st := waitTerminal(t, ts2, id); st.State != StateDone {
			t.Errorf("recovered job %s ended %q (%s), want done", id, st.State, st.Error)
		}
	}
	st := srv2.stats()
	t.Logf("restart: %d accepted pre-crash, %d records replayed, %d jobs recovered, %d quarantined",
		len(accepted), st.JournalReplays, st.JobsRecovered, st.RecordsQuarantined)
	if st.JobsRecovered == 0 {
		t.Error("no jobs recovered: the crash landed on an idle server (storm too small?)")
	}
	if st.RecordsQuarantined != 1 {
		t.Errorf("records_quarantined = %d, want 1 (the planted corrupt line)", st.RecordsQuarantined)
	}

	// Spot-check determinism across the crash: a storm spec recomputed on
	// a pristine cache-less server matches the recovered report bit for
	// bit.
	spec := loadSubmission(1)
	cachedSt, code := submit(t, ts2, spec)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("resubmission after restart: status %d", code)
	}
	if fin := waitTerminal(t, ts2, cachedSt.ID); fin.State != StateDone {
		t.Fatalf("resubmission finished %q", fin.State)
	}
	recoveredRep := getReport(t, ts2, cachedSt.ID)

	fresh := newServer(Config{Workers: 1, CacheSize: -1, Pool: pool})
	fts := httptest.NewServer(fresh)
	freshSt, code := submit(t, fts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("fresh-server submit: %d", code)
	}
	if st := waitTerminal(t, fts, freshSt.ID); st.State != StateDone {
		t.Fatalf("fresh-server job finished %q", st.State)
	}
	if freshRep := getReport(t, fts, freshSt.ID); !bytes.Equal(recoveredRep, freshRep) {
		t.Error("report recovered across the crash is not bit-identical to a fresh computation")
	}
	fctx, fcancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := fresh.Shutdown(fctx); err != nil {
		t.Errorf("fresh server Shutdown: %v", err)
	}
	fcancel()
	fts.Close()

	// This time exit gracefully: drain, close, and settle to baseline.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown after recovery: %v", err)
	}
	ts2.Close()
	client.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	goroutines := runtime.NumGoroutine()
	for goroutines > settleBaseline+3 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		goroutines = runtime.NumGoroutine()
	}
	if goroutines > settleBaseline+3 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d before the exercise, %d after settling\n%s",
			settleBaseline, goroutines, buf[:runtime.Stack(buf, true)])
	}
}
