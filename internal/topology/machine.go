package topology

import "dragonfly/internal/registry"

// Machine is the pluggable topology contract: everything the rest of
// the system — routing algorithms, the cycle-accurate simulator, the
// fault planner, the shard partitioner, the cost model and the service
// layer — needs from a concrete topology. It has three parts:
//
//   - the wiring (Routers/Radix/Port/Terminal*): the flat channel
//     table the simulator executes and the fault planner enumerates.
//     It is the one place a family states how its groups are built and
//     wired;
//   - Paths: the path table derived from that wiring once, at
//     construction, from the family's group size and its in-group
//     routing policy (LocalRoute). Routing, the shard partitioner, the
//     group-relative traffic patterns and the fault views read the
//     group structure from it;
//   - the policy and description (Nodes/RouterRadix/MinVCs/Describe/
//     String): how many virtual channels the machine needs for
//     deadlock freedom, and a structure descriptor for registries,
//     costing and conformance tests.
//
// Every family numbers routers group-major and wires at least one
// global channel between any two groups, so a minimal route takes one
// global hop and a Valiant route two; the path-table builder checks
// both. *Dragonfly, *DragonflyFB, *DragonflyPlus, *Swapped and *Aries
// implement Machine; *Degraded and *Switched wrap any Machine with
// fault awareness.
type Machine interface {
	// Wiring (the embedded Graph provides these).
	Routers() int
	Terminals() int
	Radix(router int) int
	Port(router, port int) Port
	TerminalRouter(t int) int
	TerminalPort(t int) int

	// Paths returns the path table derived from the wiring.
	Paths() *PathTable

	// Policy and description.
	Nodes() int
	RouterRadix() int
	MinVCs() int
	Describe() Descriptor
	String() string
}

// SeededLocal is the optional capability of machines whose groups wire
// parallel local links between router pairs (e.g. Aries' bundled
// inter-chassis cables): LocalRouteSeeded is the path table's Route
// with a deterministic per-packet spread over the bundle. The routing
// layer detects it by type assertion; Degraded and Switched forward it,
// so the capability survives fault wrapping. Machines without parallel
// local links simply don't implement it.
type SeededLocal interface {
	LocalRouteSeeded(from, to int, seed uint64) int
}

// Descriptor is the analytic structure summary of a Machine: sizes and
// per-class channel counts computed from the construction parameters,
// not from the wiring table. The conformance suite cross-checks it
// against the graph census, so a builder bug shows up as a descriptor
// mismatch rather than a silent mis-wiring.
type Descriptor struct {
	// Family is the registry name the machine was (or could be) built
	// from; Params its canonical build parameters.
	Family string         `json:"family"`
	Params map[string]int `json:"params"`

	Groups            int `json:"groups"`
	RoutersPerGroup   int `json:"routers_per_group"`
	TerminalsPerGroup int `json:"terminals_per_group"`
	Routers           int `json:"routers"`
	Terminals         int `json:"terminals"`
	// RouterRadix is the maximum router radix (ports incl. terminals);
	// machines with non-uniform routers (e.g. leaf/spine) report the
	// largest.
	RouterRadix int `json:"router_radix"`

	// Per-class bidirectional channel counts over the whole machine.
	TerminalChannels int `json:"terminal_channels"`
	LocalChannels    int `json:"local_channels"`
	GlobalChannels   int `json:"global_channels"`
}

// build is the topology registry's build signature: it constructs a
// machine from a complete parameter map (every schema key present;
// Build applies the defaults).
type build = func(params map[string]int) (Machine, error)

// Families is the topology registry, in presentation order: the
// canonical topology first, then the variants. It is the unit the CLI
// flags and the service's /v1/topologies endpoint expose.
var Families = registry.New("topology", []registry.Family[build]{
	{
		Name: "dragonfly",
		Doc:  "canonical dragonfly (ISCA 2008): fully connected groups of a routers, h global channels each",
		Params: []registry.Param{
			{Name: "p", Doc: "terminals per router", Default: 4},
			{Name: "a", Doc: "routers per group", Default: 8},
			{Name: "h", Doc: "global channels per router", Default: 4},
			{Name: "g", Doc: "groups (0 = maximal a*h+1)", Default: 0},
		},
		Build: func(ps map[string]int) (Machine, error) {
			return NewDragonfly(ps["p"], ps["a"], ps["h"], ps["g"])
		},
	},
	{
		Name: "dragonflyfb",
		Doc:  "dragonfly variant of Figure 6(b): flattened-butterfly groups (d1 x d2 x d3 routers)",
		Params: []registry.Param{
			{Name: "p", Doc: "terminals per router", Default: 4},
			{Name: "d1", Doc: "group dimension 1 size", Default: 2},
			{Name: "d2", Doc: "group dimension 2 size (0 = one-dimensional group)", Default: 4},
			{Name: "d3", Doc: "group dimension 3 size (0 = unused)", Default: 0},
			{Name: "h", Doc: "global channels per router", Default: 4},
			{Name: "g", Doc: "groups (0 = maximal a*h+1)", Default: 0},
		},
		Build: func(ps map[string]int) (Machine, error) {
			dims := []int{ps["d1"]}
			for _, k := range []string{"d2", "d3"} {
				if ps[k] > 0 {
					dims = append(dims, ps[k])
				}
			}
			return NewDragonflyFB(ps["p"], dims, ps["h"], ps["g"])
		},
	},
	{
		Name: "dragonflyplus",
		Doc:  "Dragonfly+ (leaf/spine groups): bipartite leaves with terminals, spines with global channels",
		Params: []registry.Param{
			{Name: "p", Doc: "terminals per leaf router", Default: 4},
			{Name: "leaves", Doc: "leaf routers per group", Default: 4},
			{Name: "spines", Doc: "spine routers per group", Default: 4},
			{Name: "h", Doc: "global channels per spine", Default: 4},
			{Name: "g", Doc: "groups (0 = maximal spines*h+1)", Default: 0},
		},
		Build: func(ps map[string]int) (Machine, error) {
			return NewDragonflyPlus(ps["p"], ps["leaves"], ps["spines"], ps["h"], ps["g"])
		},
	},
	{
		Name: "swapped",
		Doc:  "swapped dragonfly D3(K,M) (arXiv 2202.01843): OTIS wiring, router (g,i) linked to (i,g)",
		Params: []registry.Param{
			{Name: "p", Doc: "terminals per router", Default: 4},
			{Name: "k", Doc: "routers per group", Default: 8},
			{Name: "m", Doc: "groups, at most k (0 = k)", Default: 0},
		},
		Build: func(ps map[string]int) (Machine, error) {
			return NewSwapped(ps["p"], ps["k"], ps["m"])
		},
	},
	{
		Name: "aries",
		Doc:  "Aries-style cascade machine: chassis x blade groups, bundled inter-chassis and global links",
		Params: []registry.Param{
			{Name: "p", Doc: "terminals per router", Default: 4},
			{Name: "blades", Doc: "blades (routers) per chassis", Default: 16},
			{Name: "chassis", Doc: "chassis per group", Default: 6},
			{Name: "bundle", Doc: "parallel links per inter-chassis pair", Default: 3},
			{Name: "h", Doc: "global channels per router", Default: 10},
			{Name: "g", Doc: "groups", Default: 8},
		},
		Build: func(ps map[string]int) (Machine, error) {
			return NewAries(ps["p"], ps["blades"], ps["chassis"], ps["bundle"], ps["h"], ps["g"])
		},
	},
})

// Build constructs a machine of the named family from a (possibly
// partial) parameter map, resolved by Families.Resolve: the name folds
// case, omitted keys take the schema defaults and unknown keys are
// rejected with the valid set in the error. A nil map builds the
// family's default configuration.
func Build(family string, params map[string]int) (Machine, error) {
	f, full, err := Families.Resolve(family, params)
	if err != nil {
		return nil, err
	}
	return f.Build(full)
}
