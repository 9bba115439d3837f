package workload

import (
	"errors"
	"strings"
	"testing"

	"dragonfly/internal/sim"
)

func TestRegistryBuildsEveryFamily(t *testing.T) {
	tr, err := ParseTrace([]byte("10 0 5 3\n20 1 6 2\n"), 16)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Terminals: 16, Seed: 7, Trace: tr}
	for _, f := range Families.List() {
		if f.Name != strings.ToLower(f.Name) {
			t.Errorf("family %q is not lower-case", f.Name)
		}
		s, err := Build(f.Name, env, nil)
		if err != nil {
			t.Errorf("Build(%q) with defaults: %v", f.Name, err)
			continue
		}
		if s.Name() == "" || s.Fingerprint() == "" {
			t.Errorf("family %q: empty name or fingerprint", f.Name)
		}
		if w := s.StateWords(); w < 0 || w > 8 {
			t.Errorf("family %q: StateWords %d out of the engine's [0,8]", f.Name, w)
		}
	}
	if _, err := Build("trace", Env{Terminals: 16}, nil); err == nil {
		t.Error("trace family built without a trace")
	}
	if _, err := Build("no-such-source", env, nil); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := Build("onoff", env, map[string]int{"burst": 3}); err == nil {
		t.Error("unknown parameter accepted")
	}
	if f, _, err := Families.Resolve("Bernoulli", nil); err != nil || f.Name != "bernoulli" {
		t.Errorf("Families.Resolve does not fold case: %q, %v", f.Name, err)
	}
}

// drive runs a source over the given cycles for one terminal and
// returns the injected (cycle, dst) pairs. dst -1 means
// pattern-deferred.
func drive(t *testing.T, s sim.Source, term int, cycles int64, load float64, seed uint64) (fired []int64, dsts []int) {
	t.Helper()
	r := sim.NewRNG(seed, uint64(term))
	for now := int64(0); now < cycles; now++ {
		fire, dst := s.Arrive(term, now, load, &r)
		if fire {
			fired = append(fired, now)
			dsts = append(dsts, dst)
		}
	}
	return fired, dsts
}

func TestOnOffLongRunLoadMatchesScalar(t *testing.T) {
	for _, pareto := range []bool{false, true} {
		s, err := NewOnOff(4, 120, 360, pareto)
		if err != nil {
			t.Fatal(err)
		}
		const cycles, load = 400000, 0.2
		fired, _ := drive(t, s, 1, cycles, load, 11)
		rate := float64(len(fired)) / cycles
		if rate < 0.15 || rate > 0.25 {
			t.Errorf("pareto=%t: long-run rate %.4f, want ~%.2f", pareto, rate, load)
		}
	}
}

func TestOnOffBurstsAreBursty(t *testing.T) {
	// With mean dwells 100 ON / 900 OFF the ON-phase rate is 10x load:
	// a windowed count must show both near-silent and elevated windows.
	s, err := NewOnOff(2, 100, 900, false)
	if err != nil {
		t.Fatal(err)
	}
	fired, _ := drive(t, s, 0, 100000, 0.05, 3)
	window := make(map[int64]int)
	for _, c := range fired {
		window[c/500]++
	}
	lo, hi := 1<<30, 0
	for w := int64(0); w < 200; w++ {
		n := window[w]
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	// Bernoulli at 0.05 over 500 cycles gives ~25 +- 15; bursty windows
	// must swing far wider.
	if lo > 5 || hi < 100 {
		t.Errorf("window counts span [%d,%d]; want bursts (min <= 5, max >= 100)", lo, hi)
	}
}

func TestOnOffStateRoundTrip(t *testing.T) {
	a, _ := NewOnOff(4, 50, 150, true)
	b, _ := NewOnOff(4, 50, 150, true)
	ra := sim.NewRNG(9, 2)
	for now := int64(0); now < 5000; now++ {
		a.Arrive(2, now, 0.3, &ra)
	}
	var buf [2]uint64
	a.SaveState(2, buf[:])
	if err := b.LoadState(2, buf[:]); err != nil {
		t.Fatal(err)
	}
	rb := ra // copy the RNG state: b continues a's stream
	for now := int64(5000); now < 10000; now++ {
		fa, da := a.Arrive(2, now, 0.3, &ra)
		fb, db := b.Arrive(2, now, 0.3, &rb)
		if fa != fb || da != db {
			t.Fatalf("cycle %d: restored source diverged (%v,%d) vs (%v,%d)", now, fa, da, fb, db)
		}
	}
	if err := b.LoadState(0, []uint64{2, 0}); err == nil {
		t.Error("phase word 2 accepted")
	}
	if err := b.LoadState(0, []uint64{1, 1 << 40}); err == nil {
		t.Error("absurd dwell remainder accepted")
	}
}

func TestCollectivePartnerSchedules(t *testing.T) {
	const n = 12
	for _, op := range []int{OpRing, OpTree, OpAllToAll} {
		s, err := NewCollective(n, op, 10)
		if err != nil {
			t.Fatal(err)
		}
		for term := 0; term < n; term++ {
			r := sim.NewRNG(1, uint64(term))
			for now := int64(0); now < 500; now++ {
				fire, dst := s.Arrive(term, now, 1.0, &r)
				if !fire {
					if op != OpTree {
						t.Fatalf("op %d: terminal %d idle at full load", op, term)
					}
					continue
				}
				if dst < 0 || dst >= n || dst == term {
					t.Fatalf("op %d: partner %d invalid for terminal %d", op, dst, term)
				}
			}
		}
	}
	// All-to-all must pair every terminal with every other across N-1
	// phases.
	s, _ := NewCollective(n, OpAllToAll, 1)
	seen := map[int]bool{}
	r := sim.NewRNG(1, 0)
	for now := int64(0); now < n-1; now++ {
		_, dst := s.Arrive(0, now, 1.0, &r)
		seen[dst] = true
	}
	if len(seen) != n-1 {
		t.Errorf("all-to-all covered %d partners, want %d", len(seen), n-1)
	}
	if _, err := NewCollective(n, 9, 10); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestDriftMovesTheHotSpot(t *testing.T) {
	const n, period = 64, 1000
	s, err := NewDrift(n, 4, 100, period)
	if err != nil {
		t.Fatal(err)
	}
	epochDsts := make(map[int64]map[int]bool)
	r := sim.NewRNG(5, 1)
	for now := int64(0); now < 4*period; now++ {
		fire, dst := s.Arrive(1, now, 1.0, &r)
		if !fire || dst < 0 {
			t.Fatalf("pct=100 drift deferred at cycle %d", now)
		}
		e := now / period
		if epochDsts[e] == nil {
			epochDsts[e] = map[int]bool{}
		}
		epochDsts[e][dst] = true
	}
	moved := false
	for e := int64(1); e < 4; e++ {
		for d := range epochDsts[e] {
			if !epochDsts[0][d] {
				moved = true
			}
		}
		if len(epochDsts[e]) > 4 {
			t.Errorf("epoch %d hot set has %d members, want <= 4", e, len(epochDsts[e]))
		}
	}
	if !moved {
		t.Error("hot set never moved across epochs")
	}
}

func TestMultiTenantConfinement(t *testing.T) {
	const n = 16
	a := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b := []int{8, 9, 10, 11}
	onoff, _ := NewOnOff(n, 50, 50, false)
	mt, err := NewMultiTenant(n, []Tenant{
		{Name: "steady", Source: sim.DefaultSource(), Terminals: a, Confined: true},
		{Name: "bursty", Source: onoff, Terminals: b, Confined: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mt.LoadGated() {
		t.Error("all-gated tenants should gate the composite")
	}
	if mt.StateWords() != 2 {
		t.Errorf("StateWords %d, want the widest tenant's 2", mt.StateWords())
	}
	inSlice := func(set []int, d int) bool {
		for _, m := range set {
			if m == d {
				return true
			}
		}
		return false
	}
	for term := 0; term < n; term++ {
		r := sim.NewRNG(3, uint64(term))
		for now := int64(0); now < 3000; now++ {
			fire, dst := mt.Arrive(term, now, 0.5, &r)
			if !fire {
				continue
			}
			switch {
			case term >= 12:
				t.Fatalf("unassigned terminal %d injected", term)
			case term < 8 && (!inSlice(a, dst) || dst == term):
				t.Fatalf("tenant A terminal %d sent to %d, outside its slice", term, dst)
			case term >= 8 && term < 12 && (!inSlice(b, dst) || dst == term):
				t.Fatalf("tenant B terminal %d sent to %d, outside its slice", term, dst)
			}
		}
	}
	// Validation.
	if _, err := NewMultiTenant(n, nil); err == nil {
		t.Error("empty tenant list accepted")
	}
	if _, err := NewMultiTenant(n, []Tenant{
		{Name: "x", Source: sim.DefaultSource(), Terminals: []int{1}, Confined: true},
	}); err == nil {
		t.Error("single-terminal confined tenant accepted")
	}
	if _, err := NewMultiTenant(n, []Tenant{
		{Name: "x", Source: sim.DefaultSource(), Terminals: []int{1, 2}},
		{Name: "y", Source: sim.DefaultSource(), Terminals: []int{2, 3}},
	}); err == nil {
		t.Error("overlapping tenants accepted")
	}
	if _, err := NewMultiTenant(n, []Tenant{
		{Name: "x", Source: sim.DefaultSource(), Terminals: []int{3, 1}},
	}); err == nil {
		t.Error("unsorted member list accepted")
	}
}

func TestParseTraceAcceptsAndIndexes(t *testing.T) {
	src := `
# packets for a tiny machine
0 0 3 2
5 1 0 1   # inline comment
5 0 2 1
7 3 1 4
`
	tr, err := ParseTrace([]byte(src), 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Flows() != 4 {
		t.Fatalf("parsed %d flows, want 4", tr.Flows())
	}
	rep, err := NewTraceReplay(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Terminal 0: flow of 2 packets to 3 starting at 0, then 1 packet
	// to 2 from cycle 5.
	fired, dsts := drive(t, rep, 0, 10, 0 /* load ignored */, 1)
	wantCycles := []int64{0, 1, 5}
	wantDsts := []int{3, 3, 2}
	if len(fired) != len(wantCycles) {
		t.Fatalf("terminal 0 injected at %v, want %v", fired, wantCycles)
	}
	for i := range fired {
		if fired[i] != wantCycles[i] || dsts[i] != wantDsts[i] {
			t.Fatalf("injection %d = (cycle %d, dst %d), want (%d, %d)",
				i, fired[i], dsts[i], wantCycles[i], wantDsts[i])
		}
	}
	// A flow still draining slides later flows back but loses nothing.
	tr2, err := ParseTrace([]byte("0 0 1 3\n1 0 2 2\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	rep2, _ := NewTraceReplay(tr2, 4)
	fired2, dsts2 := drive(t, rep2, 0, 10, 0, 1)
	if len(fired2) != 5 || dsts2[3] != 2 || fired2[4] != 4 {
		t.Fatalf("back-to-back flows replayed as cycles %v dsts %v", fired2, dsts2)
	}
}

func TestParseTraceRejections(t *testing.T) {
	cases := map[string]string{
		"field count":       "1 2 3\n",
		"too many fields":   "1 2 3 4 5\n",
		"negative":          "-1 0 1 1\n",
		"non-numeric":       "x 0 1 1\n",
		"src range":         "0 9 1 1\n",
		"dst range":         "0 0 9 1\n",
		"zero count":        "0 0 1 0\n",
		"count cap":         "0 0 1 99999999\n",
		"cycle cap":         "99999999999999 0 1 1\n",
		"cycle regression":  "5 0 1 1\n3 0 2 1\n",
		"overflowing field": "123456789012345678901 0 1 1\n",
	}
	for name, src := range cases {
		_, err := ParseTrace([]byte(src), 4)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		var te *TraceError
		if !errors.Is(err, ErrBadTrace) || !errors.As(err, &te) {
			t.Errorf("%s: error %v is not a *TraceError wrapping ErrBadTrace", name, err)
		}
	}
	if _, err := ParseTrace([]byte("0 0 1 1\n"), 0); err == nil {
		t.Error("zero terminals accepted")
	}
}

func TestTraceReplayStateValidation(t *testing.T) {
	tr, _ := ParseTrace([]byte("0 0 1 3\n"), 2)
	rep, _ := NewTraceReplay(tr, 2)
	if err := rep.LoadState(0, []uint64{5, 0}); err == nil {
		t.Error("flow index past the end accepted")
	}
	if err := rep.LoadState(0, []uint64{1, 2}); err == nil {
		t.Error("remainder past the last flow accepted")
	}
	if err := rep.LoadState(0, []uint64{0, 9}); err == nil {
		t.Error("remainder over the flow count accepted")
	}
	if err := rep.LoadState(0, []uint64{0, 2}); err != nil {
		t.Errorf("valid mid-flow state rejected: %v", err)
	}
	if _, err := NewTraceReplay(tr, 5); err == nil {
		t.Error("terminal-count mismatch accepted")
	}
}
