package topology

import "fmt"

// DragonflyPlus is the Dragonfly+ topology (Shpiner et al., and the
// low-diameter family of arXiv 2306.13042): each group is a two-level
// bipartite fat tree of L leaf routers and S spine routers instead of a
// fully connected clique. Terminals attach to leaves only; every leaf
// connects to every spine of its group; global channels emanate from
// the spines, wired group-to-group by the same palmtree-plus-circulant
// plan as the canonical dragonfly (gwire). Minimal paths are up to
// leaf→spine/global/spine→leaf — at most two local hops per group —
// which keeps the machine diameter-5 at router level while scaling the
// group's effective radix with S·H independently of the leaf count.
//
// In-group router indices: leaves are [0, L), spines [L, L+S). Port
// layout:
//
//	leaf:  ports [0, P)     terminal ports
//	       ports [P, P+S)   up links; port P+j reaches spine j
//	spine: ports [0, L)     down links; port f reaches leaf f
//	       ports [L, L+H)   global ports; spine j carries the group's
//	                        global-channel slots [j*H, (j+1)*H)
//
// Intra-group routing is up/down (leaf→spine→leaf via the
// deterministic spine (f+t) mod S), which is acyclic, so the canonical
// 3-VC ladder stays deadlock-free: transit traffic only descends then
// ascends within a group on one VC level, destination traffic only
// ascends then descends on the final level.
type DragonflyPlus struct {
	*Graph

	// P is the number of terminals per leaf router.
	P int
	// L and S are the leaf and spine routers per group.
	L, S int
	// H is the number of global channels per spine router.
	H int
	// G is the number of groups; at most S*H+1 can be connected.
	G int

	paths *PathTable
}

// NewDragonflyPlus builds a Dragonfly+ with the given parameters. If
// groups is zero the maximal configuration g = s*h+1 is used; groups=1
// builds the degenerate single-group machine with no global channels.
func NewDragonflyPlus(p, leaves, spines, h, groups int) (*DragonflyPlus, error) {
	if p < 1 || leaves < 1 || spines < 1 || h < 1 {
		return nil, fmt.Errorf("topology: dragonfly+ parameters must be positive (p=%d leaves=%d spines=%d h=%d)", p, leaves, spines, h)
	}
	maxGroups := spines*h + 1
	if groups == 0 {
		groups = maxGroups
	}
	if groups < 1 {
		return nil, fmt.Errorf("topology: dragonfly+ needs at least 1 group (got %d)", groups)
	}
	if groups > maxGroups {
		return nil, fmt.Errorf("topology: dragonfly+ with spines=%d h=%d supports at most %d groups (got %d)", spines, h, maxGroups, groups)
	}
	var wire gwire
	var err error
	if groups > 1 {
		if wire, err = newGwire(groups, spines*h); err != nil {
			return nil, err
		}
	}
	d := &DragonflyPlus{P: p, L: leaves, S: spines, H: h, G: groups}

	rpg := leaves + spines
	routers := rpg * groups
	g := NewGraph(routers, p*leaves*groups)
	for r := 0; r < routers; r++ {
		grp, idx := r/rpg, r%rpg
		if idx < leaves {
			// Leaf: terminals, then one up link per spine.
			ports := make([]Port, 0, p+spines)
			for t := 0; t < p; t++ {
				term := (grp*leaves+idx)*p + t
				ports = append(ports, Port{Class: ClassTerminal, PeerRouter: -1, PeerPort: -1, Terminal: term})
				g.termRouter[term] = r
				g.termPort[term] = t
			}
			for j := 0; j < spines; j++ {
				ports = append(ports, Port{
					Class:      ClassLocal,
					PeerRouter: grp*rpg + leaves + j,
					PeerPort:   idx, // spine j's down port to leaf idx
					Terminal:   -1,
				})
			}
			g.ports[r] = ports
			continue
		}
		// Spine: one down link per leaf, then the global slots.
		s := idx - leaves
		ports := make([]Port, 0, leaves+h)
		for f := 0; f < leaves; f++ {
			ports = append(ports, Port{
				Class:      ClassLocal,
				PeerRouter: grp*rpg + f,
				PeerPort:   p + s, // leaf f's up port to spine s
				Terminal:   -1,
			})
		}
		for jg := 0; groups > 1 && jg < h; jg++ {
			c := s*h + jg
			dst, back := wire.peer(grp, c)
			ports = append(ports, Port{
				Class:      ClassGlobal,
				PeerRouter: dst*rpg + leaves + back/h,
				PeerPort:   leaves + back%h,
				Terminal:   -1,
			})
		}
		g.ports[r] = ports
	}
	d.Graph = g
	if d.paths, err = newPathTable(g, groups, rpg, d.LocalRoute); err != nil {
		return nil, fmt.Errorf("topology: dragonfly+ construction bug: %w", err)
	}
	return d, nil
}

// Nodes returns the terminal count N = g·L·p.
func (d *DragonflyPlus) Nodes() int { return d.G * d.L * d.P }

// RouterRadix returns the largest router radix in the machine
// (max(p+S, L+h); leaves and spines differ). A single-group machine
// has no global ports, so its spines stop at L.
func (d *DragonflyPlus) RouterRadix() int {
	leaf, spine := d.P+d.S, d.L+d.H
	if d.G == 1 {
		spine = d.L
	}
	if leaf > spine {
		return leaf
	}
	return spine
}

// EffectiveRadix returns the group's virtual-router radix: L·p terminal
// ports plus S·h global ports.
func (d *DragonflyPlus) EffectiveRadix() int { return d.L*d.P + d.S*d.H }

// LocalRoute returns the next-hop local port from in-group index from
// towards to: direct on the bipartite leaf↔spine links, via the
// deterministic spine (from+to) mod S for leaf→leaf, and via the
// deterministic leaf (from+to) mod L for spine→spine.
func (d *DragonflyPlus) LocalRoute(from, to int) int {
	if from == to {
		return -1
	}
	if from < d.L { // at a leaf: every exit ascends to a spine
		spine := to - d.L
		if to < d.L {
			spine = (from + to) % d.S
		}
		return d.P + spine
	}
	// At a spine: every exit descends to a leaf.
	if to < d.L {
		return to
	}
	return ((from - d.L) + (to - d.L)) % d.L
}

// Paths returns the path table derived from the wiring.
func (d *DragonflyPlus) Paths() *PathTable { return d.paths }

// MinVCs returns the virtual channels the routing ladder needs: 3. The
// up/down intra-group routes keep each VC level's local dependencies
// acyclic (transit descends then ascends, destination traffic ascends
// then descends on its own level), so Dragonfly+ needs no extra VCs
// over the canonical dragonfly.
func (d *DragonflyPlus) MinVCs() int { return 3 }

// Describe returns the analytic structure descriptor.
func (d *DragonflyPlus) Describe() Descriptor {
	global := 0
	if d.G > 1 {
		global = d.G * d.S * d.H / 2
	}
	return Descriptor{
		Family:            "dragonflyplus",
		Params:            map[string]int{"p": d.P, "leaves": d.L, "spines": d.S, "h": d.H, "g": d.G},
		Groups:            d.G,
		RoutersPerGroup:   d.L + d.S,
		TerminalsPerGroup: d.L * d.P,
		Routers:           (d.L + d.S) * d.G,
		Terminals:         d.Nodes(),
		RouterRadix:       d.RouterRadix(),
		TerminalChannels:  d.Nodes(),
		LocalChannels:     d.G * d.L * d.S,
		GlobalChannels:    global,
	}
}

// String describes the configuration.
func (d *DragonflyPlus) String() string {
	return fmt.Sprintf("dragonfly+(p=%d leaves=%d spines=%d h=%d g=%d N=%d k=%d k'=%d)",
		d.P, d.L, d.S, d.H, d.G, d.Nodes(), d.RouterRadix(), d.EffectiveRadix())
}
