package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dragonfly/internal/obs"
	"dragonfly/internal/serve"
)

// brokenWriter fails after accepting n bytes, like a pipe whose reader
// went away mid-document.
type brokenWriter struct {
	n   int
	err error
}

func (w *brokenWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteReportPropagatesWriteErrors(t *testing.T) {
	rep := obs.NewReport("run")
	rep.Topology = "test"
	rep.Points = []obs.Point{{Load: 0.3}}

	sentinel := errors.New("broken pipe")
	err := writeReport(rep, &brokenWriter{n: 10, err: sentinel})
	if err == nil {
		t.Fatal("writeReport on a failing writer returned nil; a closed pipe would exit 0")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("writeReport error %v does not wrap the writer's error", err)
	}
	if !strings.Contains(err.Error(), "JSON report") {
		t.Errorf("writeReport error %q lacks report context", err)
	}
}

func TestWriteReportSucceeds(t *testing.T) {
	rep := obs.NewReport("run")
	var sb strings.Builder
	if err := writeReport(rep, &sb); err != nil {
		t.Fatalf("writeReport: %v", err)
	}
	if !strings.Contains(sb.String(), "schema_version") {
		t.Errorf("report output missing schema_version: %q", sb.String())
	}
}

func TestParseSweep(t *testing.T) {
	loads, err := parseSweep("0.1:0.3:0.1")
	if err != nil {
		t.Fatalf("parseSweep: %v", err)
	}
	want := []float64{0.1, 0.2, 0.3}
	if len(loads) != len(want) {
		t.Fatalf("parseSweep = %v, want %v", loads, want)
	}
	for i := range want {
		if loads[i] != want[i] {
			t.Errorf("loads[%d] = %g, want %g", i, loads[i], want[i])
		}
	}
	if _, err := parseSweep("0.5:0.1:0.1"); err == nil {
		t.Error("parseSweep accepted an empty range")
	}
}

// small is the machine and run recipe most tests use: a 72-node
// dragonfly and short phases, so each run takes a fraction of a second.
var small = []string{"-p", "2", "-a", "4", "-h", "2", "-warmup", "300", "-measure", "300"}

// runCLI runs the command in-process and returns its exit code, stdout
// and stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRejectedFlagCombinations pins the flag combinations the spec
// cannot express: each exits 1 before simulating, with nothing on
// stdout and a message naming the setting at fault.
func TestRejectedFlagCombinations(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-traffic", "hotspot", "-pattern", "WC"}, "-traffic hotspot replaces -pattern"},
		{[]string{"-traffic-params", "hot=4"}, "-traffic-params needs -traffic"},
		{[]string{"-workload-params", "on=50"}, "-workload-params needs -workload"},
		{[]string{"-trace-file", "flows.txt"}, "-trace-file needs -workload trace"},
		{[]string{"-workload", "trace"}, "-workload trace needs -trace-file"},
		{[]string{"-topo-params", "p=2"}, "-topo-params needs -topology"},
		{[]string{"-window", "100"}, "-window/-trace produce report fields: add -json"},
		{[]string{"-trace", "16"}, "-window/-trace produce report fields: add -json"},
		{[]string{"-window", "100", "-json", "-sweep", "0.1:0.2:0.1"}, "-window/-trace apply to a single run, not -sweep"},
		{[]string{"-trace", "16", "-json", "-sweep", "0.1:0.2:0.1"}, "-window/-trace apply to a single run, not -sweep"},
		{[]string{"-checkpoint", "run.snap", "-sweep", "0.1:0.2:0.1"}, "-checkpoint/-resume apply to a single run, not -sweep"},
		{[]string{"-pattern", "ur"}, `traffic: unknown traffic pattern "ur"`},
	}
	for _, c := range cases {
		code, stdout, stderr := runCLI(append(c.args, small...)...)
		if code != exitBadConfig || stdout != "" || !strings.Contains(stderr, "dfly-sim: "+c.want) {
			t.Errorf("dfly-sim %s: exit %d, stdout %q, stderr %q; want exit 1 naming %q",
				strings.Join(c.args, " "), code, stdout, stderr, c.want)
		}
	}
	// -topology takes its machine from -topo-params only.
	for _, name := range []string{"p", "a", "h", "g"} {
		code, stdout, stderr := runCLI("-topology", "swapped", "-"+name, "2")
		want := "-topology swapped takes its parameters from -topo-params, not -" + name
		if code != exitBadConfig || stdout != "" || !strings.Contains(stderr, want) {
			t.Errorf("dfly-sim -topology swapped -%s 2: exit %d, stdout %q, stderr %q; want exit 1 naming %q",
				name, code, stdout, stderr, want)
		}
	}
}

// TestFrontDoorsAgree holds the promise that the CLI and the service
// share one spec and one builder: dfly-sim -json and dfly-serve, given
// the same spec, write byte-identical reports.
func TestFrontDoorsAgree(t *testing.T) {
	dir := t.TempDir()
	flows := "0 0 70 4\n10 1 65 3\n20 2 40 5\n100 0 20 6\n"
	traceFile := filepath.Join(dir, "flows.txt")
	if err := os.WriteFile(traceFile, []byte(flows), 0o644); err != nil {
		t.Fatal(err)
	}
	smallTopo := serve.TopologySpec{P: 2, A: 4, H: 2}
	recipe := serve.RunSpec{Warmup: 300, Measure: 300, Drain: 20000}
	cases := []struct {
		name string
		args []string
		sub  serve.Submission
	}{
		{"default machine", []string{"-warmup", "300", "-measure", "300", "-load", "0.2"},
			serve.Submission{Kind: serve.KindRun, Algorithm: "UGAL-L_VCH", Pattern: "UR", Load: 0.2, Run: recipe}},
		{"swapped", []string{"-topology", "swapped", "-topo-params", "p=2,k=8", "-alg", "MIN", "-load", "0.2", "-warmup", "300", "-measure", "300"},
			serve.Submission{Kind: serve.KindRun, Topology: serve.TopologySpec{Family: "swapped", Params: map[string]int{"p": 2, "k": 8}},
				Algorithm: "MIN", Pattern: "UR", Load: 0.2, Run: recipe}},
		{"pattern WC", append([]string{"-pattern", "WC", "-alg", "UGAL-L", "-load", "0.2"}, small...),
			serve.Submission{Kind: serve.KindRun, Topology: smallTopo, Algorithm: "UGAL-L", Pattern: "WC", Load: 0.2, Run: recipe}},
		{"traffic hotspot", append([]string{"-traffic", "hotspot", "-traffic-params", "hot=4,pct=25", "-load", "0.2"}, small...),
			serve.Submission{Kind: serve.KindRun, Topology: smallTopo, Algorithm: "UGAL-L_VCH",
				Traffic: "hotspot", TrafficParams: map[string]int{"hot": 4, "pct": 25}, Load: 0.2, Run: recipe}},
		{"workload onoff", append([]string{"-workload", "onoff", "-workload-params", "on=50,off=450", "-load", "0.3"}, small...),
			serve.Submission{Kind: serve.KindRun, Topology: smallTopo, Algorithm: "UGAL-L_VCH", Pattern: "UR",
				Workload: "onoff", WorkloadParams: map[string]int{"on": 50, "off": 450}, Load: 0.3, Run: recipe}},
		{"workload trace", append([]string{"-workload", "trace", "-trace-file", traceFile, "-load", "0"}, small...),
			serve.Submission{Kind: serve.KindRun, Topology: smallTopo, Algorithm: "UGAL-L_VCH", Pattern: "UR", Workload: "trace", Trace: flows, Run: recipe}},
		{"fault timeline", append([]string{"-fault-timeline", "@200 fail global=0.25; @400 recover all", "-fail-seed", "3", "-load", "0.2"}, small...),
			serve.Submission{Kind: serve.KindRun, Topology: smallTopo, Algorithm: "UGAL-L_VCH", Pattern: "UR", Load: 0.2, Run: recipe,
				Timeline: "@200 fail global=0.25; @400 recover all", FailSeed: 3}},
		{"window", append([]string{"-window", "100", "-load", "0.2"}, small...),
			serve.Submission{Kind: serve.KindRun, Topology: smallTopo, Algorithm: "UGAL-L_VCH", Pattern: "UR", Load: 0.2, Run: recipe, Window: 100}},
		{"sweep", append([]string{"-pattern", "WC", "-alg", "MIN", "-sweep", "0.05:0.3:0.05"}, small...),
			serve.Submission{Kind: serve.KindSweep, Topology: smallTopo, Algorithm: "MIN", Pattern: "WC",
				Loads: []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}, Run: recipe}},
	}

	srv, err := serve.Open(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, cli, stderr := runCLI(append(c.args, "-json")...)
			if code != 0 {
				t.Fatalf("dfly-sim exit %d: %s", code, stderr)
			}
			if !strings.Contains(cli, `"points"`) || c.sub.Window > 0 && !strings.Contains(cli, `"windows"`) {
				t.Fatalf("dfly-sim report lacks its points or windows:\n%s", cli)
			}
			if served := serveReport(t, srv, c.sub); cli != string(served) {
				t.Errorf("dfly-sim -json and dfly-serve reports differ\ndfly-sim:\n%s\ndfly-serve:\n%s", cli, served)
			}
		})
	}
}

// serveReport submits sub to srv, waits for the job to finish and
// returns its report.
func serveReport(t *testing.T, srv *serve.Server, sub serve.Submission) []byte {
	t.Helper()
	do := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	rec := do("POST", "/v1/jobs", body)
	var st serve.Status
	for deadline := time.Now().Add(time.Minute); ; rec = do("GET", "/v1/jobs/"+st.ID, nil) {
		if rec.Code >= 300 {
			t.Fatalf("dfly-serve: status %d: %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == serve.StateDone {
			break
		}
		if st.State == serve.StateFailed || st.State == serve.StateCanceled || time.Now().After(deadline) {
			t.Fatalf("dfly-serve job %s: %s %s", st.ID, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec = do("GET", "/v1/jobs/"+st.ID+"/report", nil)
	if rec.Code != 200 {
		t.Fatalf("dfly-serve report: status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}
