package traffic

import (
	"strings"
	"testing"
)

func TestRegistryBuildsEveryFamily(t *testing.T) {
	d := testDF(t)
	env := Env{Terminals: d.Nodes(), Machine: d, Seed: 7}
	for _, f := range Families.List() {
		if f.Name != strings.ToLower(f.Name) {
			t.Errorf("family %q is not lower-case", f.Name)
		}
		buildEnv := env
		if f.Name == "transpose" {
			buildEnv.Terminals = 64 // transpose needs a square count; 72 is not
		}
		p, err := Build(f.Name, buildEnv, nil)
		if err != nil {
			t.Errorf("Build(%q) with defaults: %v", f.Name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("family %q built a pattern with an empty name", f.Name)
		}
		s := uint64(3)
		for i := 0; i < 500; i++ {
			src := int(next(&s) % uint64(buildEnv.Terminals))
			dst := p.Dest(src, next(&s))
			if dst < 0 || dst >= buildEnv.Terminals {
				t.Fatalf("family %q: destination %d out of range", f.Name, dst)
			}
		}
	}
}

func TestRegistryMatchesDirectConstruction(t *testing.T) {
	d := testDF(t)
	env := Env{Terminals: d.Nodes(), Machine: d, Seed: 42}
	direct := map[string]Pattern{
		"ur":      NewUniformRandom(d.Nodes()),
		"wc":      NewWorstCase(d),
		"bitcomp": NewBitComplement(d.Nodes()),
		"perm":    NewPermutation(d.Nodes(), 42),
	}
	if g, err := NewGroupOffset(d, d.G/2); err == nil {
		direct["tornado"] = g
	}
	s := uint64(9)
	for name, want := range direct {
		got, err := Build(name, env, nil)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		for i := 0; i < 2000; i++ {
			src := int(next(&s) % uint64(d.Nodes()))
			r := next(&s)
			if g, w := got.Dest(src, r), want.Dest(src, r); g != w {
				t.Fatalf("family %q: registry dest %d != direct dest %d (src=%d)", name, g, w, src)
			}
		}
	}
}

func TestRegistryLookupFoldsCase(t *testing.T) {
	for _, spelling := range []string{"UR", "ur", "Ur"} {
		if f, _, err := Families.Resolve(spelling, nil); err != nil || f.Name != "ur" {
			t.Errorf("Families.Resolve(%q) = %q, %v; want ur", spelling, f.Name, err)
		}
	}
	if _, _, err := Families.Resolve("no-such-pattern", nil); err == nil {
		t.Error("unknown family resolved")
	}
}

func TestLegacyFamily(t *testing.T) {
	for spelling, want := range map[string]string{
		"UR":            "ur",
		"WC":            "wc",
		"BitComplement": "bitcomp",
		"Tornado":       "tornado",
		"Permutation":   "perm",
	} {
		got, err := LegacyFamily(spelling)
		if err != nil || got != want {
			t.Errorf("LegacyFamily(%q) = %q, %v; want %q", spelling, got, err, want)
		}
		if _, _, err := Families.Resolve(got, nil); err != nil {
			t.Errorf("LegacyFamily(%q) = %q, which is not a registered family", spelling, got)
		}
	}
	// Only the legacy spellings resolve, case-sensitively: registry
	// names, other case forms and the empty string are rejected.
	for _, spelling := range []string{"ur", "bitcomp", "hotspot", "", "wc", "Ur", "bitcomplement"} {
		if got, err := LegacyFamily(spelling); err == nil {
			t.Errorf("LegacyFamily(%q) = %q, want an error", spelling, got)
		}
	}
}

func TestRegistryRejectsUnknownParams(t *testing.T) {
	d := testDF(t)
	env := Env{Terminals: d.Nodes(), Machine: d}
	_, err := Build("hotspot", env, map[string]int{"heat": 3})
	if err == nil || !strings.Contains(err.Error(), "heat") {
		t.Errorf("unknown parameter not rejected with its name: %v", err)
	}
	if _, err := Build("hotspot", env, map[string]int{"pct": 140}); err == nil {
		t.Error("pct > 100 accepted")
	}
	if _, err := Build("groupoffset", env, map[string]int{"offset": 0}); err == nil {
		t.Error("offset 0 accepted")
	}
}

func TestRegistryNeedsGroupedMachine(t *testing.T) {
	env := Env{Terminals: 64}
	for _, name := range []string{"wc", "groupoffset", "tornado"} {
		if _, err := Build(name, env, nil); err == nil {
			t.Errorf("family %q built without a grouped machine", name)
		}
	}
}

// TestHotSpotUnbiasedAtScale pins the draw-split fix: with a hot-set
// size that does not divide 2^16, the old 16-bit selection slice skewed
// both the hot/uniform split and the member choice; the full-precision
// split must keep every hot member's share within a tight band.
func TestHotSpotUnbiasedAtScale(t *testing.T) {
	const n = 100000
	hot := []int{3, 77777, 99999}
	h, err := NewHotSpot(n, hot, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	s := uint64(17)
	const draws = 60000
	for i := 0; i < draws; i++ {
		d := h.Dest(1, next(&s))
		counts[d]++
	}
	hotTotal := 0
	for _, m := range hot {
		hotTotal += counts[m]
		share := float64(counts[m]) / draws
		if share < 0.17 || share > 0.23 {
			t.Errorf("hot member %d got share %.4f, want ~0.20", m, share)
		}
	}
	if frac := float64(hotTotal) / draws; frac < 0.57 || frac > 0.63 {
		t.Errorf("hot fraction %.4f, want ~0.60", frac)
	}
}
