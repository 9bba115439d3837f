package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/obs"
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

// TestBuildWorkload pins the -pattern front door: a legacy spelling
// runs the same Workload as its -traffic family, keeps the spelling for
// display, and resolves to the family the spelling has always meant.
func TestBuildWorkload(t *testing.T) {
	legacy, disp, err := buildWorkload("WC", "", "", "", "", "")
	if err != nil {
		t.Fatalf("-pattern WC: %v", err)
	}
	family, _, err := buildWorkload("UR", "wc", "", "", "", "")
	if err != nil {
		t.Fatalf("-traffic wc: %v", err)
	}
	if !reflect.DeepEqual(legacy, family) {
		t.Errorf("-pattern WC workload %+v, -traffic wc workload %+v; want equal", legacy, family)
	}
	if disp != "WC" {
		t.Errorf("-pattern WC displays as %q, want the spelling WC", disp)
	}
	perm, _, err := buildWorkload("Permutation", "", "", "", "", "")
	if err != nil {
		t.Fatalf("-pattern Permutation: %v", err)
	}
	if want := (core.Workload{Traffic: "perm"}); !reflect.DeepEqual(perm, want) {
		t.Errorf("-pattern Permutation workload %+v, want %+v", perm, want)
	}
	for _, bad := range []string{"ur", "perm", "bogus"} {
		if _, _, err := buildWorkload(bad, "", "", "", "", ""); err == nil {
			t.Errorf("-pattern %s accepted, want an error", bad)
		}
	}
}
