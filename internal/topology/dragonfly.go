package topology

import (
	"fmt"
)

// Dragonfly is the three-level hierarchical topology of the paper
// (Section 3.1). Each router has P terminal ports, A-1 local ports that
// fully connect it to the other routers of its group, and H global ports.
// The A routers of a group collectively act as a virtual router of
// effective radix K' = A(P+H); groups are connected by an inter-group
// network that is a single dimension of a flattened butterfly (each pair
// of groups is directly connected), giving every minimal route at most
// one global channel.
//
// Port layout on every router (used by routing and by the simulator):
//
//	ports [0, P)            terminal ports
//	ports [P, P+A-1)        local ports; local port j reaches the router
//	                        whose in-group index is j if j < own index,
//	                        else j+1
//	ports [P+A-1, P+A-1+H)  global ports; the router with in-group index
//	                        i carries the group's global-channel slots
//	                        [i*H, (i+1)*H)
//
// Global-channel slots of a group are assigned to peer groups in two
// layers. With S = A*H slots per group and g groups, every ordered pair
// of groups first receives base = ⌊S/(g-1)⌋ channels (slot c < base*(g-1)
// targets group (G+1+c mod (g-1)) mod g, the classic "palmtree"
// arrangement). The remaining r = S mod (g-1) slots per group form a
// circulant graph with offsets ±1, ±2, … (plus the antipodal offset g/2
// when r is odd and g even), which keeps the wiring symmetric: the number
// of channels from G to D always equals the number from D to G. A
// configuration with r odd and g odd cannot be wired symmetrically with
// every port used and is rejected.
type Dragonfly struct {
	*Graph

	// P is the number of terminals per router.
	P int
	// A is the number of routers per group.
	A int
	// H is the number of global channels per router.
	H int
	// G is the number of groups. At most A*H+1 groups can be connected;
	// the maximum-size dragonfly has exactly one channel between each
	// pair of groups.
	G int

	paths *PathTable
}

// NewDragonfly builds a dragonfly with the given parameters. If groups is
// zero the maximal configuration g = a*h+1 is used. groups = 1 builds the
// degenerate single-group machine — one fully connected group with no
// global channels (every route is intra-group); it exists so routing
// algorithms and tests can exercise the no-other-group edge case.
func NewDragonfly(p, a, h, groups int) (*Dragonfly, error) {
	if p < 1 || a < 1 || h < 1 {
		return nil, fmt.Errorf("topology: dragonfly parameters must be positive (p=%d a=%d h=%d)", p, a, h)
	}
	maxGroups := a*h + 1
	if groups == 0 {
		groups = maxGroups
	}
	if groups < 1 {
		return nil, fmt.Errorf("topology: dragonfly needs at least 1 group (got %d)", groups)
	}
	if groups > maxGroups {
		return nil, fmt.Errorf("topology: dragonfly with a=%d h=%d supports at most %d groups (got %d)", a, h, maxGroups, groups)
	}
	var wire gwire
	var err error
	if groups > 1 {
		if wire, err = newGwire(groups, a*h); err != nil {
			return nil, err
		}
	}
	d := &Dragonfly{P: p, A: a, H: h, G: groups}

	routers := a * groups
	terminals := p * routers
	g := NewGraph(routers, terminals)

	// The canonical port layout is fully determined, so the port table is
	// written directly, each channel's two endpoints at their canonical
	// port indices.
	radix := p + (a - 1) + h
	for r := 0; r < routers; r++ {
		grp, idx := r/a, r%a
		ports := make([]Port, 0, radix)
		for t := 0; t < p; t++ {
			term := r*p + t
			ports = append(ports, Port{Class: ClassTerminal, PeerRouter: -1, PeerPort: -1, Terminal: term})
			g.termRouter[term] = r
			g.termPort[term] = t
		}
		for j := 0; j < a-1; j++ {
			peerIdx := j
			if j >= idx {
				peerIdx = j + 1
			}
			ports = append(ports, Port{
				Class:      ClassLocal,
				PeerRouter: grp*a + peerIdx,
				PeerPort:   d.LocalPort(peerIdx, idx),
				Terminal:   -1,
			})
		}
		for jg := 0; groups > 1 && jg < h; jg++ {
			c := idx*h + jg
			dst, back := wire.peer(grp, c)
			ports = append(ports, Port{
				Class:      ClassGlobal,
				PeerRouter: dst*a + back/h,
				PeerPort:   p + a - 1 + back%h,
				Terminal:   -1,
			})
		}
		g.ports[r] = ports
	}
	d.Graph = g
	if d.paths, err = newPathTable(g, groups, a, d.LocalRoute); err != nil {
		return nil, fmt.Errorf("topology: dragonfly construction bug: %w", err)
	}
	return d, nil
}

// RouterRadix returns the router radix k = p + a + h - 1 (terminal ports
// included, as in the paper's definition). A single-group machine has no
// global ports, so its routers stop at p + a - 1.
func (d *Dragonfly) RouterRadix() int {
	if d.G == 1 {
		return d.P + d.A - 1
	}
	return d.P + d.A + d.H - 1
}

// EffectiveRadix returns the radix k' = a(p+h) of the group acting as a
// virtual router.
func (d *Dragonfly) EffectiveRadix() int { return d.A * (d.P + d.H) }

// Nodes returns the number of terminals N = a·p·g.
func (d *Dragonfly) Nodes() int { return d.A * d.P * d.G }

// LocalPort returns the port index on the router with in-group index from
// that connects it to the router with in-group index to of the same group.
func (d *Dragonfly) LocalPort(from, to int) int {
	if to < from {
		return d.P + to
	}
	return d.P + to - 1
}

// String describes the dragonfly configuration.
func (d *Dragonfly) String() string {
	return fmt.Sprintf("dragonfly(p=%d a=%d h=%d g=%d N=%d k=%d k'=%d)",
		d.P, d.A, d.H, d.G, d.Nodes(), d.RouterRadix(), d.EffectiveRadix())
}

// LocalRoute returns the next-hop local port on the router with in-group
// index from towards the router with in-group index to. The canonical
// dragonfly group is fully connected, so the next hop is the direct
// port.
func (d *Dragonfly) LocalRoute(from, to int) int {
	if from == to {
		return -1 // no local hop needed
	}
	return d.LocalPort(from, to)
}

// Paths returns the path table derived from the wiring.
func (d *Dragonfly) Paths() *PathTable { return d.paths }

// MinVCs returns the virtual channels the routing ladder needs for
// deadlock freedom on this topology: 3 (Figure 7 — two for minimal
// routing plus one for the non-minimal detour; the fully connected
// group's single-hop local routes add no intra-group dependencies).
func (d *Dragonfly) MinVCs() int { return 3 }

// Describe returns the analytic structure descriptor.
func (d *Dragonfly) Describe() Descriptor {
	global := 0
	if d.G > 1 {
		global = d.G * d.A * d.H / 2
	}
	return Descriptor{
		Family:            "dragonfly",
		Params:            map[string]int{"p": d.P, "a": d.A, "h": d.H, "g": d.G},
		Groups:            d.G,
		RoutersPerGroup:   d.A,
		TerminalsPerGroup: d.A * d.P,
		Routers:           d.A * d.G,
		Terminals:         d.Nodes(),
		RouterRadix:       d.RouterRadix(),
		TerminalChannels:  d.Nodes(),
		LocalChannels:     d.G * d.A * (d.A - 1) / 2,
		GlobalChannels:    global,
	}
}
