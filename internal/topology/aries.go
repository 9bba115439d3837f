package topology

import "fmt"

// Aries is an Aries-style "cascade" machine (Cray XC, per the
// aries_intercon constants in SNIPPETS.md): each group is a two-level
// chassis × blade structure — B blades (routers) per chassis wired
// all-to-all across the chassis backplane, and C chassis per group
// wired all-to-all between peer-numbered blades with Mult parallel
// cables per pair (the bundled "black" links; the production machine
// uses B=16, C=6, Mult=3). Every router carries H global ("blue")
// ports; the inter-group wiring is the shared palmtree-plus-circulant
// plan (gwire), which with S = B·C·H slots and far fewer groups yields
// ⌊S/(g-1)⌋ parallel global channels per group pair — the bundled
// inter-group trunks (137 per pair at the production constants).
//
// The group is a 2-D flattened butterfly over coordinates (blade,
// chassis): in-group index idx = chassis·B + blade. Port layout:
//
//	ports [0, P)                    terminal ports
//	ports [P, P+B-1)                intra-chassis links, one per other blade
//	ports [P+B-1, P+B-1+(C-1)·Mult) inter-chassis links, Mult consecutive
//	                                ports per other chassis
//	ports [gBase, gBase+H)          global ports; slot layout as in Dragonfly
//
// Intra-group routing is dimension order (blade first, then chassis),
// acyclic as in DragonflyFB, so the canonical 3-VC ladder applies. The
// chassis dimension's parallel links are spread per packet through
// LocalRouteSeeded (the routing layer's optional bundle hook);
// LocalRoute deterministically uses the first cable of each bundle.
type Aries struct {
	*Graph

	// P is the number of terminals per router.
	P int
	// B is the number of blades (routers) per chassis.
	B int
	// C is the number of chassis per group.
	C int
	// Mult is the number of parallel links per inter-chassis blade pair.
	Mult int
	// H is the number of global channels per router.
	H int
	// G is the number of groups.
	G int

	gBase int // first global port
	paths *PathTable
}

// NewAries builds the cascade machine. groups must be at least 1 and at
// most B·C·H+1 (so every group pair gets a direct channel); groups = 1
// builds a single isolated group with no global ports.
func NewAries(p, blades, chassis, mult, h, groups int) (*Aries, error) {
	if p < 1 || blades < 1 || chassis < 1 || mult < 1 || h < 1 {
		return nil, fmt.Errorf("topology: aries parameters must be positive (p=%d blades=%d chassis=%d bundle=%d h=%d)", p, blades, chassis, mult, h)
	}
	a := blades * chassis
	maxGroups := a*h + 1
	if groups < 1 {
		return nil, fmt.Errorf("topology: aries needs at least 1 group (got %d)", groups)
	}
	if groups > maxGroups {
		return nil, fmt.Errorf("topology: aries with %d routers/group and h=%d supports at most %d groups (got %d)", a, h, maxGroups, groups)
	}
	var wire gwire
	var err error
	if groups > 1 {
		if wire, err = newGwire(groups, a*h); err != nil {
			return nil, err
		}
	}
	d := &Aries{
		P: p, B: blades, C: chassis, Mult: mult, H: h, G: groups,
		gBase: p + (blades - 1) + (chassis-1)*mult,
	}

	routers := a * groups
	g := NewGraph(routers, p*routers)
	radix := d.gBase + h
	for r := 0; r < routers; r++ {
		grp, idx := r/a, r%a
		blade, ch := idx%blades, idx/blades
		ports := make([]Port, 0, radix)
		for t := 0; t < p; t++ {
			term := r*p + t
			ports = append(ports, Port{Class: ClassTerminal, PeerRouter: -1, PeerPort: -1, Terminal: term})
			g.termRouter[term] = r
			g.termPort[term] = t
		}
		for v := 0; v < blades; v++ {
			if v == blade {
				continue
			}
			ports = append(ports, Port{
				Class:      ClassLocal,
				PeerRouter: grp*a + ch*blades + v,
				PeerPort:   d.bladePort(v, blade),
				Terminal:   -1,
			})
		}
		for v := 0; v < chassis; v++ {
			if v == ch {
				continue
			}
			for k := 0; k < mult; k++ {
				ports = append(ports, Port{
					Class:      ClassLocal,
					PeerRouter: grp*a + v*blades + blade,
					PeerPort:   d.chassisPort(v, ch, k),
					Terminal:   -1,
				})
			}
		}
		for jg := 0; groups > 1 && jg < h; jg++ {
			c := idx*h + jg
			dst, back := wire.peer(grp, c)
			ports = append(ports, Port{
				Class:      ClassGlobal,
				PeerRouter: dst*a + back/h,
				PeerPort:   d.gBase + back%h,
				Terminal:   -1,
			})
		}
		g.ports[r] = ports
	}
	d.Graph = g
	if d.paths, err = newPathTable(g, groups, a, d.LocalRoute); err != nil {
		return nil, fmt.Errorf("topology: aries construction bug: %w", err)
	}
	return d, nil
}

// bladePort returns the intra-chassis port on the router at blade
// coordinate own reaching blade peer.
func (d *Aries) bladePort(own, peer int) int {
	if peer < own {
		return d.P + peer
	}
	return d.P + peer - 1
}

// chassisPort returns the k-th inter-chassis port on the router at
// chassis coordinate own reaching chassis peer.
func (d *Aries) chassisPort(own, peer, k int) int {
	vi := peer
	if peer > own {
		vi = peer - 1
	}
	return d.P + d.B - 1 + vi*d.Mult + k
}

// Nodes returns the terminal count N = g·B·C·p.
func (d *Aries) Nodes() int { return d.G * d.B * d.C * d.P }

// RouterRadix returns the uniform router radix.
func (d *Aries) RouterRadix() int {
	if d.G > 1 {
		return d.gBase + d.H
	}
	return d.gBase
}

// LocalRoute returns the next-hop local port from in-group index from
// towards to: dimension order, blade first (single cable), then chassis
// (first cable of the bundle; LocalRouteSeeded spreads over it).
func (d *Aries) LocalRoute(from, to int) int {
	fb, fc := from%d.B, from/d.B
	tb, tc := to%d.B, to/d.B
	if fb != tb {
		return d.bladePort(fb, tb)
	}
	if fc != tc {
		return d.chassisPort(fc, tc, 0)
	}
	return -1
}

// LocalRouteSeeded is LocalRoute with the inter-chassis bundle spread:
// the seed picks one of the Mult parallel cables of the chassis hop
// uniformly and deterministically per packet. The routing layer detects
// this optional method and uses it in place of LocalRoute, so bundle
// cables load-balance without any per-packet state.
func (d *Aries) LocalRouteSeeded(from, to int, seed uint64) int {
	fb, fc := from%d.B, from/d.B
	tb, tc := to%d.B, to/d.B
	if fb != tb {
		return d.bladePort(fb, tb)
	}
	if fc != tc {
		k := 0
		if d.Mult > 1 {
			k = int(mix64(seed^0xa0761d6478bd642f) % uint64(d.Mult))
		}
		return d.chassisPort(fc, tc, k)
	}
	return -1
}

// mix64 is the SplitMix64 finalizer, duplicated here (from
// internal/sim) so the topology package stays dependency-free.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Paths returns the path table derived from the wiring.
func (d *Aries) Paths() *PathTable { return d.paths }

// MinVCs returns the virtual channels the routing ladder needs: 3 —
// dimension-order local routing is acyclic exactly as in DragonflyFB,
// and the parallel bundle cables are distinct channels of one
// dependency edge, adding no cycles.
func (d *Aries) MinVCs() int { return 3 }

// Describe returns the analytic structure descriptor.
func (d *Aries) Describe() Descriptor {
	a := d.B * d.C
	global := 0
	if d.G > 1 {
		global = d.G * a * d.H / 2
	}
	return Descriptor{
		Family:            "aries",
		Params:            map[string]int{"p": d.P, "blades": d.B, "chassis": d.C, "bundle": d.Mult, "h": d.H, "g": d.G},
		Groups:            d.G,
		RoutersPerGroup:   a,
		TerminalsPerGroup: a * d.P,
		Routers:           a * d.G,
		Terminals:         d.Nodes(),
		RouterRadix:       d.RouterRadix(),
		TerminalChannels:  d.Nodes(),
		LocalChannels:     d.G * (d.C*d.B*(d.B-1)/2 + d.B*d.C*(d.C-1)/2*d.Mult),
		GlobalChannels:    global,
	}
}

// String describes the configuration.
func (d *Aries) String() string {
	return fmt.Sprintf("aries(p=%d blades=%d chassis=%d bundle=%d h=%d g=%d N=%d k=%d)",
		d.P, d.B, d.C, d.Mult, d.H, d.G, d.Nodes(), d.RouterRadix())
}
