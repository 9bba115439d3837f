// Package workload provides the arrival processes that drive the
// engine's per-terminal injection: Bernoulli (the backward-compatible
// default), ON/OFF bursty sources with seeded exponential or Pareto
// dwell times, a time-drifting hot-spot, collective communication
// phases (ring/tree all-reduce, all-to-all), and replay of recorded
// traces in a simple timestamped-flow format. Every source implements
// sim.Source — deterministic per terminal, snapshot-able word for word,
// allocation-free on the steady path — and is reachable through a
// Families/Build registry like topology.Families, so CLIs and the
// job service can compose workloads from (family, integer parameters)
// without package-level switches.
package workload

import (
	"fmt"

	"dragonfly/internal/registry"
	"dragonfly/internal/sim"
)

// Env carries the context a source is built against.
type Env struct {
	// Terminals is the machine's terminal count (required, > 0).
	Terminals int
	// Seed is the system seed; sources draw all randomness from the
	// engine's per-terminal RNG streams, so Seed only feeds identity
	// derivation, never a private generator.
	Seed uint64
	// Trace is the parsed flow trace, required by (and only by) the
	// "trace" family.
	Trace *Trace
}

// build is the workload registry's build signature: it constructs the
// source from a complete parameter map (every schema key present;
// Build applies the defaults).
type build = func(env Env, params map[string]int) (sim.Source, error)

// Families is the arrival-process registry, in listing order. Names are
// lower-case; lookups fold case.
var Families = registry.New("workload", []registry.Family[build]{
	{
		Name: "bernoulli",
		Doc:  "memoryless injection: each terminal offers a packet with probability load every cycle (the legacy default)",
		Build: func(Env, map[string]int) (sim.Source, error) {
			return sim.DefaultSource(), nil
		},
	},
	{
		Name: "onoff",
		Doc:  "two-state bursty injection: seeded ON/OFF dwell times, ON bursts scaled so the long-run offered load stays at the load scalar",
		Params: []registry.Param{
			{Name: "on", Doc: "mean ON-dwell in cycles", Default: 100},
			{Name: "off", Doc: "mean OFF-dwell in cycles", Default: 300},
			{Name: "pareto", Doc: "dwell distribution: 0 = exponential, 1 = Pareto (alpha=1.5, heavy-tailed)", Default: 0},
		},
		Build: func(env Env, p map[string]int) (sim.Source, error) {
			return NewOnOff(env.Terminals, p["on"], p["off"], p["pareto"] != 0)
		},
	},
	{
		Name: "drift",
		Doc:  "time-drifting hot-spot: a contiguous hot set moves to a new pseudo-random position every period cycles; cold packets defer to the traffic pattern",
		Params: []registry.Param{
			{Name: "hot", Doc: "number of hot terminals", Default: 1},
			{Name: "pct", Doc: "percentage of packets aimed at the hot set, in [0,100]", Default: 50},
			{Name: "period", Doc: "cycles between hot-set moves", Default: 1000},
		},
		Build: func(env Env, p map[string]int) (sim.Source, error) {
			return NewDrift(env.Terminals, p["hot"], p["pct"], p["period"])
		},
	},
	{
		Name: "collective",
		Doc:  "phased collective: every terminal sends to its phase partner (ring all-reduce, recursive-doubling tree, or rotating all-to-all) at the load scalar's intensity",
		Params: []registry.Param{
			{Name: "op", Doc: "collective schedule: 0 = ring all-reduce, 1 = recursive-doubling tree, 2 = rotating all-to-all", Default: 0},
			{Name: "phaselen", Doc: "cycles per collective phase", Default: 200},
		},
		Build: func(env Env, p map[string]int) (sim.Source, error) {
			return NewCollective(env.Terminals, p["op"], p["phaselen"])
		},
	},
	{
		Name: "trace",
		Doc:  "replay of a recorded flow trace (lines of \"cycle src dst count\"); ignores the load scalar",
		Build: func(env Env, _ map[string]int) (sim.Source, error) {
			if env.Trace == nil {
				return nil, fmt.Errorf("workload: family \"trace\" needs a parsed trace (Env.Trace)")
			}
			return NewTraceReplay(env.Trace, env.Terminals)
		},
	},
})

// Build constructs a source of the named family from a (possibly
// partial) parameter map, resolved by Families.Resolve: the name folds
// case, omitted keys take the schema defaults and unknown keys are
// rejected with the valid set in the error. A nil map builds the
// family's default configuration.
func Build(family string, env Env, params map[string]int) (sim.Source, error) {
	f, full, err := Families.Resolve(family, params)
	switch { // a known family checks the terminal count before the keys
	case f.Name == "":
		return nil, err
	case env.Terminals <= 0:
		return nil, fmt.Errorf("workload: family %q: terminal count %d must be positive", f.Name, env.Terminals)
	case err != nil:
		return nil, err
	}
	return f.Build(env, full)
}
