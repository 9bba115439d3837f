package serve

import (
	"testing"
)

// baseSubmission returns a fully spelled-out valid submission the hash
// tests mutate one field at a time.
func baseSubmission() Submission {
	return Submission{
		Kind:      KindRun,
		Topology:  TopologySpec{P: 2, A: 4, H: 2, BufDepth: 16},
		Algorithm: "UGAL-L_VCH",
		Pattern:   "WC",
		Seed:      7,
		Load:      0.25,
		Run:       RunSpec{Warmup: 200, Measure: 200, Drain: 2000},
	}
}

func mustHash(t *testing.T, sub Submission) string {
	t.Helper()
	spec, err := sub.Normalize(Limits{})
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", sub, err)
	}
	return spec.Hash()
}

// TestHashDefaultsCancelOut pins the canonicalisation property: a
// submission that spells out every default hashes identically to one
// that omits them all, so the cache never runs the same machine twice
// because two clients phrased it differently.
func TestHashDefaultsCancelOut(t *testing.T) {
	terse := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Load: 0.1}
	spelled := Submission{
		Kind:      KindRun,
		Topology:  TopologySpec{P: 4, A: 8, H: 4, BufDepth: 16},
		Algorithm: "MIN",
		Pattern:   "UR",
		Seed:      1,
		Load:      0.1,
		Run:       RunSpec{Warmup: 3000, Measure: 2000, Drain: 30000},
		FailSeed:  1,
	}
	if a, b := mustHash(t, terse), mustHash(t, spelled); a != b {
		t.Errorf("defaulted submission hashes %s, spelled-out %s: want equal", a, b)
	}
}

// TestHashSpellingsCancelOut pins the stronger canonicalisation
// property of dfly-job/2: the legacy p/a/h shorthand and the registry
// family+params spelling of the same machine share one hash (and
// therefore one cache entry), including when the family spelling leans
// on schema defaults.
func TestHashSpellingsCancelOut(t *testing.T) {
	legacy := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Load: 0.1,
		Topology: TopologySpec{P: 2, A: 4, H: 2}}
	family := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Load: 0.1,
		Topology: TopologySpec{Family: "dragonfly", Params: map[string]int{"p": 2, "a": 4, "h": 2}}}
	if a, b := mustHash(t, legacy), mustHash(t, family); a != b {
		t.Errorf("legacy spelling hashes %s, family spelling %s: want equal", a, b)
	}
	// Schema defaults cancel too: the default dragonfly by any name,
	// the family name folding case.
	terse := mustHash(t, Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Load: 0.1})
	for _, name := range []string{"dragonfly", "Dragonfly"} {
		fam := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Load: 0.1,
			Topology: TopologySpec{Family: name}}
		if h := mustHash(t, fam); h != terse {
			t.Errorf("default dragonfly hashes %s by shorthand, %s by family %q: want equal", terse, h, name)
		}
	}
}

// TestHashFamiliesDistinct: different families with overlapping
// parameter values must not collide.
func TestHashFamiliesDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, topo := range []TopologySpec{
		{Family: "dragonfly", Params: map[string]int{"p": 2, "a": 4, "h": 2}},
		{Family: "dragonflyplus", Params: map[string]int{"p": 2, "leaves": 4, "spines": 4, "h": 2}},
		{Family: "swapped", Params: map[string]int{"p": 2, "k": 4}},
		{Family: "aries", Params: map[string]int{"p": 1, "blades": 4, "chassis": 2, "bundle": 2, "h": 2, "g": 4}},
	} {
		h := mustHash(t, Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Load: 0.1, Topology: topo})
		if prev, dup := seen[h]; dup {
			t.Errorf("families %s and %s share hash %s", prev, topo.Family, h)
		}
		seen[h] = topo.Family
	}
}

// TestNormalizeTopologyRejections: the family spelling is validated as
// deeply as the legacy one.
func TestNormalizeTopologyRejections(t *testing.T) {
	for name, topo := range map[string]TopologySpec{
		"unknown family":    {Family: "hypercube"},
		"unknown param":     {Family: "swapped", Params: map[string]int{"p": 2, "q": 4}},
		"mixed spellings":   {Family: "swapped", P: 2},
		"params w/o family": {Params: map[string]int{"p": 2}},
		"invalid build":     {Family: "swapped", Params: map[string]int{"p": 2, "k": 4, "m": 9}},
	} {
		sub := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Load: 0.1, Topology: topo}
		if _, err := sub.Normalize(Limits{}); err == nil {
			t.Errorf("%s: Normalize accepted %+v", name, topo)
		}
	}
}

// TestNormalizeTopologyErrorText: a machine the topology package
// refuses is reported with that package's message as is, under one
// "topology:" prefix.
func TestNormalizeTopologyErrorText(t *testing.T) {
	sub := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Load: 0.1, Topology: TopologySpec{P: -1, A: 8, H: 4}}
	_, err := sub.Normalize(Limits{})
	if want := "topology: dragonfly parameters must be positive (p=-1 a=8 h=4)"; err == nil || err.Error() != want {
		t.Errorf("Normalize(p=-1) error %v, want %q", err, want)
	}
}

// TestHashGolden pins the exact digest of a fixed submission. A change
// here means the canonical encoding moved: every cached result in every
// deployment is invalidated, so the change must be deliberate and come
// with a jobHashVersion bump.
func TestHashGolden(t *testing.T) {
	const want = "93ff8682c363f2e67fa715fd9923809556df5b63b1185c60dec04f279d1d147e"
	got := mustHash(t, Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Load: 0.1})
	if got != want {
		t.Errorf("golden job hash moved:\n got %s\nwant %s\n(bump jobHashVersion if the encoding changed deliberately)", got, want)
	}
}

// TestHashFieldSensitivity proves every semantic field reaches the
// digest: mutating any one of them alone must change the hash, or the
// cache would serve a result computed for a different machine.
func TestHashFieldSensitivity(t *testing.T) {
	base := mustHash(t, baseSubmission())
	mutations := map[string]func(*Submission){
		"kind":      func(s *Submission) { s.Kind = KindSweep; s.Load = 0; s.Loads = []float64{0.25} },
		"p":         func(s *Submission) { s.Topology.P = 3 },
		"a":         func(s *Submission) { s.Topology.A = 6 },
		"h":         func(s *Submission) { s.Topology.H = 3 },
		"groups":    func(s *Submission) { s.Topology.Groups = 5 },
		"buf_depth": func(s *Submission) { s.Topology.BufDepth = 8 },
		"seed":      func(s *Submission) { s.Seed = 8 },
		"algorithm": func(s *Submission) { s.Algorithm = "MIN" },
		"pattern":   func(s *Submission) { s.Pattern = "UR" },
		"load":      func(s *Submission) { s.Load = 0.26 },
		"warmup":    func(s *Submission) { s.Run.Warmup = 201 },
		"measure":   func(s *Submission) { s.Run.Measure = 201 },
		"drain":     func(s *Submission) { s.Run.Drain = 2001 },
		"timeline":  func(s *Submission) { s.Timeline = "@100 fail global=0.1" },
		"fail_seed": func(s *Submission) { s.Timeline = "@100 fail global=0.1"; s.FailSeed = 2 },
		"window":    func(s *Submission) { s.Window = 100 },
		"traffic": func(s *Submission) {
			s.Pattern, s.Traffic = "", "hotspot"
		},
		"traffic_params": func(s *Submission) {
			s.Pattern, s.Traffic = "", "hotspot"
			s.TrafficParams = map[string]int{"hot": 2}
		},
		"workload": func(s *Submission) { s.Workload = "onoff" },
		"workload_params": func(s *Submission) {
			s.Workload = "onoff"
			s.WorkloadParams = map[string]int{"on": 50}
		},
		"trace": func(s *Submission) {
			s.Workload, s.Trace = "trace", "0 0 1 1\n"
		},
	}
	for field, mutate := range mutations {
		sub := baseSubmission()
		mutate(&sub)
		if got := mustHash(t, sub); got == base {
			t.Errorf("mutating %s did not change the job hash", field)
		}
	}
	// fail_seed must differ from the bare-timeline mutation too, not
	// just from base.
	tl := baseSubmission()
	tl.Timeline = "@100 fail global=0.1"
	seeded := baseSubmission()
	seeded.Timeline = "@100 fail global=0.1"
	seeded.FailSeed = 2
	if mustHash(t, tl) == mustHash(t, seeded) {
		t.Error("fail_seed does not reach the job hash")
	}
	// The parameterised mutations must differ from their bare-family
	// counterparts too, or the params never reached the digest.
	bare := baseSubmission()
	bare.Pattern, bare.Traffic = "", "hotspot"
	par := baseSubmission()
	par.Pattern, par.Traffic = "", "hotspot"
	par.TrafficParams = map[string]int{"hot": 2}
	if mustHash(t, bare) == mustHash(t, par) {
		t.Error("traffic_params do not reach the job hash")
	}
	bw := baseSubmission()
	bw.Workload = "onoff"
	pw := baseSubmission()
	pw.Workload = "onoff"
	pw.WorkloadParams = map[string]int{"on": 50}
	if mustHash(t, bw) == mustHash(t, pw) {
		t.Error("workload_params do not reach the job hash")
	}
	// A trace hashes by content: different flows, different hash.
	ta := baseSubmission()
	ta.Workload, ta.Trace = "trace", "0 0 1 1\n"
	tb := baseSubmission()
	tb.Workload, tb.Trace = "trace", "0 0 1 2\n"
	if mustHash(t, ta) == mustHash(t, tb) {
		t.Error("trace content does not reach the job hash")
	}
}

// TestHashWorkloadSpellingsCancelOut pins the dfly-job/3
// canonicalisation: the legacy pattern enum and the registry family are
// one cache entry, an explicit bernoulli workload is the default
// spelled out, spelled-out schema defaults cancel, and a trace hashes
// by its canonical flow content — comments and whitespace cancel.
func TestHashWorkloadSpellingsCancelOut(t *testing.T) {
	base := mustHash(t, Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Load: 0.1})
	for name, sub := range map[string]Submission{
		"registry ur":        {Kind: KindRun, Algorithm: "MIN", Traffic: "ur", Load: 0.1},
		"case-folded":        {Kind: KindRun, Algorithm: "MIN", Traffic: "UR", Load: 0.1},
		"explicit bernoulli": {Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Workload: "bernoulli", Load: 0.1},
	} {
		if got := mustHash(t, sub); got != base {
			t.Errorf("%s hashes %s, legacy pattern %s: want one cache entry", name, got, base)
		}
	}
	// Spelled-out workload schema defaults cancel against the bare family.
	bare := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Workload: "onoff", Load: 0.1}
	spelled := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Workload: "onoff",
		WorkloadParams: map[string]int{"on": 100, "off": 300, "pareto": 0}, Load: 0.1}
	if a, b := mustHash(t, bare), mustHash(t, spelled); a != b {
		t.Errorf("defaulted onoff hashes %s, spelled-out %s: want equal", a, b)
	}
	// Trace reformatting cancels: same flows, different spelling.
	ta := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Workload: "trace",
		Trace: "0 0 1 1\n5 2 3 2\n", Load: 0.1}
	tb := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Workload: "trace",
		Trace: "# same flows\n0   0 1 1\n\n5\t2 3 2 # comment\n", Load: 0.1}
	if a, b := mustHash(t, ta), mustHash(t, tb); a != b {
		t.Errorf("reformatted trace hashes %s vs %s: want equal (content digest)", a, b)
	}
}

// TestHashLegacyPatternSpellings pins the legacy "pattern" front door
// to the registry: each spelling shares the cache entry of the family
// it has always meant (and no other), keeps the submitted spelling for
// display, and registry names are not accepted as pattern spellings.
func TestHashLegacyPatternSpellings(t *testing.T) {
	pairs := []struct{ pattern, traffic string }{
		{"UR", "ur"}, {"WC", "wc"}, {"BitComplement", "bitcomp"}, {"Tornado", "tornado"}, {"Permutation", "perm"},
	}
	for i, p := range pairs {
		legacy := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: p.pattern, Load: 0.1}
		spec, err := legacy.Normalize(Limits{})
		if err != nil {
			t.Fatalf("pattern %s: %v", p.pattern, err)
		}
		if spec.Pattern != p.pattern || spec.Traffic != p.traffic {
			t.Errorf("pattern %s: spec shows %q and runs %q, want %q and %q", p.pattern, spec.Pattern, spec.Traffic, p.pattern, p.traffic)
		}
		for j, q := range pairs {
			reg := Submission{Kind: KindRun, Algorithm: "MIN", Traffic: q.traffic, Load: 0.1}
			if same := mustHash(t, legacy) == mustHash(t, reg); same != (i == j) {
				t.Errorf("pattern %s vs traffic %s: hashes equal = %v, want %v", p.pattern, q.traffic, same, i == j)
			}
		}
	}
	for _, bad := range []string{"", "ur", "bitcomp", "hotspot"} {
		sub := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: bad, Load: 0.1}
		if _, err := sub.Normalize(Limits{}); err == nil {
			t.Errorf("pattern %q accepted, want a rejection", bad)
		}
	}
}

// TestNormalizeWorkloadRejections: the workload stanza is validated as
// deeply as the topology one.
func TestNormalizeWorkloadRejections(t *testing.T) {
	for name, mutate := range map[string]func(*Submission){
		"pattern and traffic":   func(s *Submission) { s.Traffic = "ur" },
		"unknown traffic":       func(s *Submission) { s.Pattern, s.Traffic = "", "chaos" },
		"unknown traffic param": func(s *Submission) { s.Pattern, s.Traffic = "", "hotspot"; s.TrafficParams = map[string]int{"heat": 3} },
		"bad traffic param": func(s *Submission) {
			s.Pattern, s.Traffic = "", "hotspot"
			s.TrafficParams = map[string]int{"pct": 200}
		},
		"traffic params w/o fam":   func(s *Submission) { s.TrafficParams = map[string]int{"hot": 1} },
		"unknown workload":         func(s *Submission) { s.Workload = "burst" },
		"unknown workload param":   func(s *Submission) { s.Workload = "onoff"; s.WorkloadParams = map[string]int{"dwell": 5} },
		"bad workload param":       func(s *Submission) { s.Workload = "onoff"; s.WorkloadParams = map[string]int{"on": -1} },
		"workload params w/o fam":  func(s *Submission) { s.WorkloadParams = map[string]int{"on": 50} },
		"trace w/o trace workload": func(s *Submission) { s.Trace = "0 0 1 1\n" },
		"trace w/ other workload":  func(s *Submission) { s.Workload = "onoff"; s.Trace = "0 0 1 1\n" },
		"trace workload w/o trace": func(s *Submission) { s.Workload = "trace" },
		"malformed trace":          func(s *Submission) { s.Workload = "trace"; s.Trace = "0 0 1\n" },
	} {
		sub := baseSubmission()
		mutate(&sub)
		if _, err := sub.Normalize(Limits{}); err == nil {
			t.Errorf("%s: Normalize accepted %+v", name, sub)
		}
	}
	// And the trace size limit bites.
	sub := baseSubmission()
	sub.Workload, sub.Trace = "trace", "0 0 1 1\n"
	if _, err := sub.Normalize(Limits{MaxTraceBytes: 4}); err == nil {
		t.Error("MaxTraceBytes did not reject an oversized trace")
	}
}

// TestHashExecutionKnobsUnhashed pins the other direction: shards (the
// engine is bit-identical for every count) and timeout_ms (an execution
// bound) must NOT change the hash — a cached result answers them all.
func TestHashExecutionKnobsUnhashed(t *testing.T) {
	base := mustHash(t, baseSubmission())
	sharded := baseSubmission()
	sharded.Shards = 4
	if got := mustHash(t, sharded); got != base {
		t.Errorf("shards changed the job hash (%s vs %s): a cached result would be recomputed per shard count", got, base)
	}
	timed := baseSubmission()
	timed.TimeoutMS = 5000
	if got := mustHash(t, timed); got != base {
		t.Errorf("timeout_ms changed the job hash (%s vs %s)", got, base)
	}
}

// TestHashLoadBitSensitivity: loads hash by IEEE-754 bit pattern, so
// two loads differing in the last ulp get distinct cache entries.
func TestHashLoadBitSensitivity(t *testing.T) {
	a := baseSubmission()
	b := baseSubmission()
	b.Load = a.Load + 1e-16
	if b.Load == a.Load {
		t.Skip("increment vanished; pick a bigger ulp")
	}
	if mustHash(t, a) == mustHash(t, b) {
		t.Error("loads differing in the last ulp share a hash")
	}
}
