package traffic

import (
	"fmt"

	"dragonfly/internal/registry"
	"dragonfly/internal/topology"
)

// Pattern is what the registry builds: the engine's traffic contract (a
// destination map over terminals) plus the name that identifies the
// pattern in snapshots and reports. Every concrete pattern in this
// package implements it.
type Pattern interface {
	Name() string
	Dest(src int, rand uint64) int
}

// Env carries the machine context a pattern is built against. Unlike
// topology parameters, several patterns are functions of the machine
// itself (group structure, terminal count), so Build takes the context
// out of band and the parameter map stays pure integers — same shape,
// same spelling rules, same error contract as topology.Build.
type Env struct {
	// Terminals is the terminal count (required, > 0).
	Terminals int
	// Machine supplies the group structure (its path table), required
	// by the group-relative families (wc, groupoffset, tornado); it may
	// be nil otherwise.
	Machine topology.Machine
	// Seed feeds the seeded families (perm).
	Seed uint64
}

// build is the traffic registry's build signature: it constructs the
// pattern from a complete parameter map (every schema key present;
// Build applies the defaults).
type build = func(env Env, params map[string]int) (Pattern, error)

// Families is the traffic registry, in listing order. Names are
// lower-case and lookups fold case, so legacy spellings ("UR") resolve.
// The constructors are the same ones the pre-registry enum path called,
// so a registry-built pattern is the enum-built pattern — bit for bit
// (golden-pinned in internal/core).
var Families = registry.New("traffic", []registry.Family[build]{
	{
		Name: "ur",
		Doc:  "uniform random: every packet to a uniformly chosen other terminal (benign baseline, Figure 8(a))",
		Build: func(env Env, _ map[string]int) (Pattern, error) {
			return NewUniformRandom(env.Terminals), nil
		},
	},
	{
		Name: "wc",
		Doc:  "dragonfly worst case: group G_i sends to random nodes of G_i+1, funnelling each group through one global channel (Figure 8(b))",
		Build: func(env Env, _ map[string]int) (Pattern, error) {
			if env.Machine == nil {
				return nil, fmt.Errorf("traffic: family \"wc\" needs a grouped machine")
			}
			return NewWorstCase(env.Machine), nil
		},
	},
	{
		Name: "groupoffset",
		Doc:  "group G_i sends to random nodes of G_i+offset (offset 1 = worst case, g/2 = tornado)",
		Params: []registry.Param{
			{Name: "offset", Doc: "group displacement; must not be a multiple of the group count", Default: 1},
		},
		Build: func(env Env, p map[string]int) (Pattern, error) {
			if env.Machine == nil {
				return nil, fmt.Errorf("traffic: family \"groupoffset\" needs a grouped machine")
			}
			return NewGroupOffset(env.Machine, p["offset"])
		},
	},
	{
		Name: "tornado",
		Doc:  "group-level tornado: group G_i sends to random nodes of G_i+g/2",
		Build: func(env Env, _ map[string]int) (Pattern, error) {
			if env.Machine == nil {
				return nil, fmt.Errorf("traffic: family \"tornado\" needs a grouped machine")
			}
			return NewGroupOffset(env.Machine, env.Machine.Paths().Groups()/2)
		},
	},
	{
		Name: "bitcomp",
		Doc:  "bit complement: terminal i sends to terminal N-1-i",
		Build: func(env Env, _ map[string]int) (Pattern, error) {
			return NewBitComplement(env.Terminals), nil
		},
	},
	{
		Name: "transpose",
		Doc:  "matrix transpose permutation; needs a square terminal count",
		Build: func(env Env, _ map[string]int) (Pattern, error) {
			return NewTranspose(env.Terminals)
		},
	},
	{
		Name: "hotspot",
		Doc:  "a fraction of packets target a small, evenly spaced set of hot terminals; the rest go uniform random",
		Params: []registry.Param{
			{Name: "hot", Doc: "number of hot terminals, spread evenly over the machine", Default: 1},
			{Name: "pct", Doc: "percentage of packets aimed at the hot set, in [0,100]", Default: 10},
		},
		Build: func(env Env, p map[string]int) (Pattern, error) {
			k := p["hot"]
			if k < 1 || k > env.Terminals {
				return nil, fmt.Errorf("traffic: hotspot hot=%d out of [1,%d]", k, env.Terminals)
			}
			if p["pct"] < 0 || p["pct"] > 100 {
				return nil, fmt.Errorf("traffic: hotspot pct=%d out of [0,100]", p["pct"])
			}
			hot := make([]int, k)
			for i := range hot {
				hot[i] = i * env.Terminals / k
			}
			return NewHotSpot(env.Terminals, hot, float64(p["pct"])/100)
		},
	},
	{
		Name: "perm",
		Doc:  "fixed random permutation of terminals, drawn once from the system seed",
		Build: func(env Env, _ map[string]int) (Pattern, error) {
			return NewPermutation(env.Terminals, env.Seed), nil
		},
	},
})

// legacyNames are the pattern spellings of the paper-era front doors
// (dfly-sim -pattern, the job service's "pattern" field), in listing
// order, each with the registry family it denotes.
var legacyNames = []struct{ spelling, family string }{
	{"UR", "ur"},
	{"WC", "wc"},
	{"BitComplement", "bitcomp"},
	{"Tornado", "tornado"},
	{"Permutation", "perm"},
}

// LegacyFamily resolves a legacy pattern spelling ("UR", "WC",
// "BitComplement", "Tornado", "Permutation"; matched case-sensitively)
// to its registry family name. Family names themselves are not legacy
// spellings and are rejected.
func LegacyFamily(spelling string) (string, error) {
	names := make([]string, len(legacyNames))
	for i, l := range legacyNames {
		if l.spelling == spelling {
			return l.family, nil
		}
		names[i] = l.spelling
	}
	return "", fmt.Errorf("traffic: unknown traffic pattern %q (supported: %v)", spelling, names)
}

// Build constructs a pattern of the named family from a (possibly
// partial) parameter map, resolved by Families.Resolve: the name folds
// case, omitted keys take the schema defaults and unknown keys are
// rejected with the valid set in the error. A nil map builds the
// family's default configuration.
func Build(family string, env Env, params map[string]int) (Pattern, error) {
	f, full, err := Families.Resolve(family, params)
	switch { // a known family checks the terminal count before the keys
	case f.Name == "":
		return nil, err
	case env.Terminals <= 0:
		return nil, fmt.Errorf("traffic: family %q: terminal count %d must be positive", f.Name, env.Terminals)
	case err != nil:
		return nil, err
	}
	return f.Build(env, full)
}
