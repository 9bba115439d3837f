package fault

import (
	"strings"
	"testing"

	"dragonfly/internal/topology"
)

func TestTimelineCompileEpochs(t *testing.T) {
	d := testDF(t)
	// Events inserted out of cycle order: the compiler must sort them.
	tl := NewTimeline(7).
		FailChannelsAt(100, topology.ClassGlobal, 2).
		FailRouterAt(50, 3)
	sched, err := tl.Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(sched.Epochs) != 3 {
		t.Fatalf("epochs: %d, want 3 (pristine, @50, @100)", len(sched.Epochs))
	}
	wantStarts := []int64{0, 50, 100}
	for i, e := range sched.Epochs {
		if e.Start != wantStarts[i] {
			t.Errorf("epoch %d start %d, want %d", i, e.Start, wantStarts[i])
		}
		if e.View == nil || e.Faults == nil {
			t.Fatalf("epoch %d missing view or fault set", i)
		}
	}
	if r, g, l, term := sched.Epochs[0].View.FaultCounts(); r+g+l+term != 0 {
		t.Errorf("synthesised pristine epoch has faults: %d routers %d/%d/%d channels", r, g, l, term)
	}
	if r, _, _, _ := sched.Epochs[1].View.FaultCounts(); r != 1 {
		t.Errorf("epoch @50: %d routers down, want 1", r)
	}
	if !sched.Epochs[1].View.RouterDown(3) {
		t.Error("epoch @50: router 3 not down")
	}
	// Router 3 being down kills its own 2 global channels on top of the
	// 2 explicitly failed ones.
	if r, g, _, _ := sched.Epochs[2].View.FaultCounts(); r != 1 || g != 4 {
		t.Errorf("epoch @100: %d routers %d globals down, want 1 and 4", r, g)
	}
}

func TestTimelineRecoverAllRestoresPristine(t *testing.T) {
	d := testDF(t)
	sched, err := NewTimeline(3).
		FailFractionAt(10, topology.ClassGlobal, 0.25).
		FailRoutersAt(10, 2).
		RecoverAllAt(500).
		Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	last := sched.Epochs[len(sched.Epochs)-1]
	if last.Start != 500 {
		t.Fatalf("final epoch starts at %d, want 500", last.Start)
	}
	if r, g, l, term := last.View.FaultCounts(); r+g+l+term != 0 {
		t.Errorf("recover-all epoch still has faults: %d routers, %d/%d/%d channels", r, g, l, term)
	}
	if got := last.View.AliveTerminals(); got != d.Terminals() {
		t.Errorf("recover-all epoch: %d live terminals, want %d", got, d.Terminals())
	}
}

func TestTimelineSameCycleEventsCollapse(t *testing.T) {
	d := testDF(t)
	sched, err := NewTimeline(1).
		FailChannelsAt(100, topology.ClassGlobal, 1).
		FailChannelsAt(100, topology.ClassLocal, 2).
		FailRouterAt(100, 8).
		Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(sched.Epochs) != 2 {
		t.Fatalf("epochs: %d, want 2 (three same-cycle events collapse into one boundary)", len(sched.Epochs))
	}
	// FaultCounts counts router-induced channel deaths too: router 8
	// contributes its own 2 global and 3 local channels on top of the
	// explicit 1 global + 2 local failures.
	r, g, l, _ := sched.Epochs[1].View.FaultCounts()
	if r != 1 || g != 3 || l != 5 {
		t.Errorf("collapsed epoch counts: %d routers %d global %d local, want 1/3/5", r, g, l)
	}
}

func TestTimelineCompileDeterminism(t *testing.T) {
	d := testDF(t)
	build := func() *Schedule {
		sched, err := NewTimeline(42).
			FailFractionAt(100, topology.ClassGlobal, 0.2).
			FailRoutersAt(300, 3).
			RecoverChannelsAt(600, topology.ClassGlobal, 2).
			RecoverRoutersAt(600, 1).
			Compile(d)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		return sched
	}
	a, b := build(), build()
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("epoch counts differ: %d vs %d", len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		for r := 0; r < d.Routers(); r++ {
			for p := 0; p < d.Radix(r); p++ {
				if a.Epochs[i].View.Alive(r, p) != b.Epochs[i].View.Alive(r, p) {
					t.Fatalf("epoch %d: port (%d,%d) liveness differs between identical compiles", i, r, p)
				}
			}
		}
	}
}

// TestTimelineCycleZeroMatchesPlan pins the equivalence the golden
// tests rely on: a timeline whose only events fire at cycle 0 compiles
// to exactly the fault set a standing Plan with the same seed and the
// same calls produces.
func TestTimelineCycleZeroMatchesPlan(t *testing.T) {
	d := testDF(t)
	sched, err := NewTimeline(5).
		FailFractionAt(0, topology.ClassGlobal, 0.10).
		Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(sched.Epochs) != 1 {
		t.Fatalf("epochs: %d, want 1", len(sched.Epochs))
	}
	plan := NewPlan(5)
	plan.FailFraction(d, topology.ClassGlobal, 0.10)
	for r := 0; r < d.Routers(); r++ {
		if sched.Epochs[0].Faults.RouterDown(r) != plan.RouterDown(r) {
			t.Fatalf("router %d: timeline and plan disagree", r)
		}
		for p := 0; p < d.Radix(r); p++ {
			if sched.Epochs[0].Faults.PortDown(r, p) != plan.PortDown(r, p) {
				t.Fatalf("port (%d,%d): timeline and plan disagree", r, p)
			}
		}
	}
}

func TestTimelineCompileErrors(t *testing.T) {
	d := testDF(t)
	cases := []struct {
		name string
		tl   *Timeline
	}{
		{"negative cycle", NewTimeline(1).FailChannelsAt(-5, topology.ClassGlobal, 1)},
		{"negative count", NewTimeline(1).FailChannelsAt(10, topology.ClassGlobal, -1)},
		{"fraction > 1", NewTimeline(1).FailFractionAt(10, topology.ClassGlobal, 1.5)},
		{"negative fraction", NewTimeline(1).FailFractionAt(10, topology.ClassGlobal, -0.1)},
		{"router out of range", NewTimeline(1).FailRouterAt(10, d.Routers())},
		{"negative router", NewTimeline(1).FailRouterAt(10, -1)},
		{"no live terminals", NewTimeline(1).FailFractionAt(10, topology.ClassTerminal, 1.0)},
	}
	for _, c := range cases {
		if _, err := c.tl.Compile(d); err == nil {
			t.Errorf("%s: compiled without error", c.name)
		}
	}
}

func TestTimelineRecoveryBuilders(t *testing.T) {
	d := testDF(t)
	// Fail 4 globals, recover 2 of them: the final epoch must hold
	// exactly 2 failed globals, and the recovered ones must be drawn
	// from the failed set (never newly failed channels).
	sched, err := NewTimeline(9).
		FailChannelsAt(10, topology.ClassGlobal, 4).
		RecoverChannelsAt(20, topology.ClassGlobal, 2).
		Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	_, gFail, _, _ := sched.Epochs[1].View.FaultCounts()
	_, gRec, _, _ := sched.Epochs[2].View.FaultCounts()
	if gFail != 4 || gRec != 2 {
		t.Fatalf("global fault counts: %d then %d, want 4 then 2", gFail, gRec)
	}
	// Every port dead in the recovered epoch was dead in the failed one.
	for r := 0; r < d.Routers(); r++ {
		for p := 0; p < d.Radix(r); p++ {
			if !sched.Epochs[2].View.Alive(r, p) && sched.Epochs[1].View.Alive(r, p) {
				t.Fatalf("port (%d,%d) dead after recovery but alive before", r, p)
			}
		}
	}

	// Router recovery by id.
	sched, err = NewTimeline(9).
		FailRouterAt(10, 4).
		RecoverRouterAt(20, 4).
		Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if sched.Epochs[1].View.RouterDown(4) != true || sched.Epochs[2].View.RouterDown(4) != false {
		t.Error("router 4 fail/recover sequence wrong")
	}
}

func TestParseTimeline(t *testing.T) {
	d := testDF(t)
	tl, err := ParseTimeline("@2000 fail global=0.25; @4000 fail router=7; @8000 recover all", 1)
	if err != nil {
		t.Fatalf("ParseTimeline: %v", err)
	}
	sched, err := tl.Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if sched.Events != 3 {
		t.Fatalf("events: %d, want 3", sched.Events)
	}
	if len(sched.Epochs) != 4 {
		t.Fatalf("epochs: %d, want 4", len(sched.Epochs))
	}
	if !sched.Epochs[2].View.RouterDown(7) {
		t.Error("router 7 not down after @4000")
	}
	if r, g, l, term := sched.Epochs[3].View.FaultCounts(); r+g+l+term != 0 {
		t.Error("recover all did not clear the faults")
	}

	// Counts, multiple args per event, blank events tolerated.
	tl, err = ParseTimeline(" @10 fail global=3 routers=2 ;; @20 recover global=1 ", 1)
	if err != nil {
		t.Fatalf("ParseTimeline: %v", err)
	}
	if sched, err = tl.Compile(d); err != nil {
		t.Fatalf("Compile: %v", err)
	} else if sched.Events != 3 {
		t.Fatalf("events: %d, want 3", sched.Events)
	}

	bad := []string{
		"fail global=1",          // missing @CYCLE
		"@x fail global=1",       // bad cycle
		"@-5 fail global=1",      // negative cycle
		"@10 explode global=1",   // bad verb
		"@10 fail",               // nothing to fail
		"@10 fail all",           // all is recover-only
		"@10 fail widgets=1",     // unknown key
		"@10 fail router=0.5",    // router id as fraction
		"@10 recover global=0.5", // recover fraction
		"@10 fail global",        // missing =value
		"@10 fail global=banana", // unparseable amount
		"@10 fail routers=0.25",  // router count as fraction
		"@10 fail global=-2",     // negative amount
	}
	for _, spec := range bad {
		if _, err := ParseTimeline(spec, 1); err == nil {
			t.Errorf("spec %q parsed without error", spec)
		}
	}
}

func TestTimelineString(t *testing.T) {
	tl := NewTimeline(4)
	if s := tl.String(); !strings.Contains(s, "no events") {
		t.Errorf("empty timeline string: %q", s)
	}
	tl.FailChannelsAt(10, topology.ClassGlobal, 1).RecoverAllAt(20)
	if s := tl.String(); !strings.Contains(s, "2 events") || !strings.Contains(s, "2 epochs") {
		t.Errorf("timeline string: %q", s)
	}
}
