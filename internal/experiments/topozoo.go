package experiments

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/cost"
	"dragonfly/internal/fault"
	"dragonfly/internal/topology"
)

// topoZooFaultSeed seeds the zoo's resilience fault draws, so the same
// channels die for every topology family on every run.
const topoZooFaultSeed = 1

// zooEntry is one column of the topology-zoo exhibit: a registry family
// plus explicit build parameters chosen so every machine in the
// comparison has roughly the same router radix (the technology
// constraint of the paper: a topology spends a router generation's pin
// budget, it doesn't choose it).
type zooEntry struct {
	family string
	params map[string]int
}

// zooEntries returns the equal-radix comparison set. At paper scale the
// machines sit in the radix-12..16 class around the 1K-node evaluation
// network; Quick shrinks them to the radix-6..10 class around the
// 72-node example so tests stay fast.
func (s Scale) zooEntries() []zooEntry {
	if s.Small {
		return []zooEntry{
			{"dragonfly", map[string]int{"p": 2, "a": 4, "h": 2}},
			{"dragonflyplus", map[string]int{"p": 2, "leaves": 4, "spines": 4, "h": 2}},
			{"swapped", map[string]int{"p": 2, "k": 6}},
			{"aries", map[string]int{"p": 1, "blades": 4, "chassis": 2, "bundle": 2, "h": 2, "g": 8}},
		}
	}
	return []zooEntry{
		{"dragonfly", map[string]int{"p": 4, "a": 8, "h": 4}},
		{"dragonflyplus", map[string]int{"p": 4, "leaves": 8, "spines": 8, "h": 4}},
		{"swapped", map[string]int{"p": 4, "k": 12}},
		{"aries", map[string]int{"p": 4, "blades": 8, "chassis": 2, "bundle": 1, "h": 4, "g": 9}},
	}
}

// TopoZoo is the cross-topology exhibit (not a paper figure — the paper
// compares against flattened butterflies and folded Clos networks; this
// compares the dragonfly against its own descendants at equal radix):
// for each registered machine of the equal-radix set it reports the
// structure (N, radix, channel census), the cost per node under the
// Figure 19 pricing model, saturation throughput and low-load latency
// under uniform random traffic with UGAL-L, and resilience — the
// accepted throughput retained after 10% of the global channels fail.
func TopoZoo(s Scale) (*Table, error) {
	entries := s.zooEntries()

	type row struct {
		desc    topology.Descriptor
		radix   int
		perNode float64
		satThr  float64
		lowLat  float64
		degThr  float64
		dropped int64
	}
	rows := make([]row, len(entries))
	model := cost.DefaultModel()

	err := s.Pool().ForEach(len(entries), func(k int) error {
		e := entries[k]
		sys, err := core.NewSystem(core.SystemConfig{
			Topology: e.family, TopoParams: e.params, BufDepth: 16,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", e.family, err)
		}
		r := row{desc: sys.Topo.Describe(), radix: sys.Topo.RouterRadix()}

		bd, err := model.Machine(sys.Topo)
		if err != nil {
			return fmt.Errorf("%s: %w", e.family, err)
		}
		r.perNode = bd.PerNode()

		// Pristine UR sweep: saturation throughput and low-load latency.
		points, err := sys.SweepPoolW(s.Pool(), core.AlgUGALL, ur, s.urLoads(), s.runCfg(), 2)
		if err != nil {
			return fmt.Errorf("%s: %w", e.family, err)
		}
		if len(points) == 0 {
			return fmt.Errorf("%s: empty sweep", e.family)
		}
		r.lowLat = points[0].Result.Latency.Mean()
		for _, pt := range points {
			if pt.Result.Accepted > r.satThr {
				r.satThr = pt.Result.Accepted
			}
		}

		// Resilience: fail 10% of the global channels and re-sweep.
		plan := fault.NewPlan(topoZooFaultSeed)
		plan.FailFraction(sys.Topo, topology.ClassGlobal, 0.10)
		fsys := sys.WithFaults(plan)
		dpoints, err := fsys.SweepPoolW(s.Pool(), core.AlgUGALL, ur, s.urLoads(), s.runCfg(), 2)
		if err != nil {
			return fmt.Errorf("%s degraded: %w", e.family, err)
		}
		for _, pt := range dpoints {
			if pt.Result.Accepted > r.degThr {
				r.degThr = pt.Result.Accepted
			}
			r.dropped += pt.Result.Dropped
		}
		rows[k] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "Topology zoo",
		Title: "equal-radix comparison: structure, cost, UR performance and resilience (UGAL-L)",
		Header: []string{"family", "N", "radix", "groups", "local ch", "global ch",
			"$/node", "sat thr", "low lat", "sat thr @10% glb fail", "retained"},
	}
	for k, e := range entries {
		r := rows[k]
		retained := "-"
		if r.satThr > 0 {
			retained = fmt.Sprintf("%.0f%%", 100*r.degThr/r.satThr)
		}
		t.Rows = append(t.Rows, []string{
			e.family,
			fmt.Sprintf("%d", r.desc.Terminals),
			fmt.Sprintf("%d", r.radix),
			fmt.Sprintf("%d", r.desc.Groups),
			fmt.Sprintf("%d", r.desc.LocalChannels),
			fmt.Sprintf("%d", r.desc.GlobalChannels),
			fmt.Sprintf("%.2f", r.perNode),
			fmt.Sprintf("%.3f", r.satThr),
			fmt.Sprintf("%.1f", r.lowLat),
			fmt.Sprintf("%.3f", r.degThr),
			retained,
		})
		if r.dropped > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %d packets dropped under the 10%% global-channel fault plan", e.family, r.dropped))
		}
	}
	t.Notes = append(t.Notes,
		"machines are sized to the same router pin budget, so throughput differences reflect wiring, not technology",
		"the swapped dragonfly buys its single global port per router with sparser inter-group wiring: cheap, but less resilient headroom",
		"cost per node uses the Figure 19 pricing model (router ports by radix class, cables by length)")
	return t, nil
}
