package core

import (
	"fmt"

	"dragonfly/internal/sim"
	"dragonfly/internal/traffic"
	"dragonfly/internal/workload"
)

// Workload is the registry-unified traffic specification of a run: a
// traffic pattern family (where packets go) plus an arrival-process
// source family (when packets are offered). Both halves are (family
// name, integer parameters) pairs resolved through the traffic and
// workload registries, the same shape SystemConfig uses for topologies,
// so CLIs and the job service compose workloads without package-level
// switches. The zero value is uniform random traffic under Bernoulli
// injection.
type Workload struct {
	// Traffic selects a traffic family (traffic.Families: "ur",
	// "wc", "groupoffset", "tornado", "bitcomp", "transpose",
	// "hotspot", "perm"; lookups fold case). Empty means "ur".
	Traffic string
	// TrafficParams are the family's build parameters; omitted keys
	// take the schema defaults.
	TrafficParams map[string]int
	// Source selects an arrival-process family (workload.Families:
	// "bernoulli", "onoff", "drift", "collective", "trace"). Empty
	// keeps the engine's built-in Bernoulli source — bit-identical to
	// the pre-registry injection path.
	Source string
	// SourceParams are the source family's build parameters.
	SourceParams map[string]int
	// Trace is the parsed flow trace, required by (and only by) the
	// "trace" source family.
	Trace *workload.Trace
}

// family returns the traffic family name, defaulting the zero value.
func (w Workload) family() string {
	if w.Traffic == "" {
		return "ur"
	}
	return w.Traffic
}

// Label names the workload in progress events and error messages:
// the traffic family, plus the source family when one is set.
func (w Workload) Label() string {
	if w.Source == "" || w.Source == "bernoulli" {
		return w.family()
	}
	return w.family() + "+" + w.Source
}

// TrafficFor constructs the workload's traffic pattern over this
// topology through the registry.
func (s *System) TrafficFor(w Workload) (sim.Traffic, error) {
	env := traffic.Env{
		Terminals: s.Topo.Nodes(),
		Machine:   s.Topo,
		Seed:      s.cfg.Seed,
	}
	return traffic.Build(w.family(), env, w.TrafficParams)
}

// SourceFor constructs the workload's arrival process through the
// workload registry, or nil when the workload keeps the engine's
// built-in Bernoulli default (Source empty).
func (s *System) SourceFor(w Workload) (sim.Source, error) {
	if w.Source == "" {
		if len(w.SourceParams) > 0 {
			return nil, fmt.Errorf("core: workload source parameters %v without a source family", w.SourceParams)
		}
		return nil, nil
	}
	env := workload.Env{
		Terminals: s.Topo.Nodes(),
		Seed:      s.cfg.Seed,
		Trace:     w.Trace,
	}
	return workload.Build(w.Source, env, w.SourceParams)
}
